package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
)

// cellRun is one timed cell run.
type cellRun struct {
	digest    string
	stats     machine.Stats
	wall, cpu time.Duration // host time
	// scale converts its host times to reference time (probe.go); 1
	// when the run was not bracketed by probes.
	scale float64
	err   error
}

// runner runs cells one at a time (closed loop, one cell in flight)
// and checks each result.
type runner struct {
	cells []cell
	pool  *machine.Pool
	// ref is the recorded digest of each cell for this seed; nil when
	// none was recorded, and the run then checks against the reference
	// path instead (crossCheck).
	ref []string
	// seen is the digest of each cell's first default-path run.
	seen []string

	attempted, failed int
	problems          []string
}

func newRunner(cells []cell, pool *machine.Pool, ref []string) *runner {
	return &runner{cells: cells, pool: pool, ref: ref, seen: make([]string, len(cells))}
}

// exec runs cell i under cfg, inside spans when tr is not nil.
func (r *runner) exec(i int, cfg machine.Config, tr *tracer, group string) cellRun {
	c := r.cells[i]
	root := tr.begin("cell", group, 0)
	call := tr.begin(c.layer, group, root)
	c0, t0 := cpuTime(), time.Now()
	res, st, err := c.run(r.pool, cfg)
	e := cellRun{stats: st, wall: time.Since(t0), scale: 1, err: err}
	e.cpu = cpuTime() - c0
	tr.end(call)
	if err == nil {
		e.digest = digest(res)
	}
	tr.end(root)
	return e
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one default-path run: it fails on an error, or when its
// digest differs from the recorded reference (or, with none recorded,
// from the cell's first run).
func (r *runner) check(i int, e cellRun) bool {
	r.attempted++
	if e.err != nil {
		r.fail("%s: %v", r.cells[i].id, e.err)
		return false
	}
	want := r.seen[i]
	if r.ref != nil {
		want = r.ref[i]
	}
	if r.seen[i] == "" {
		r.seen[i] = e.digest
	}
	if want != "" && e.digest != want {
		r.fail("%s: digest %s, reference %s", r.cells[i].id, e.digest, want)
		return false
	}
	return true
}

// checkTwin counts one accelerator-off twin run, which must digest
// exactly like the default path.
func (r *runner) checkTwin(i int, twin string, e cellRun) bool {
	r.attempted++
	switch {
	case e.err != nil:
		r.fail("%s %s: %v", r.cells[i].id, twin, e.err)
	case e.digest != r.seen[i]:
		r.fail("%s %s: digest %s, default path %s", r.cells[i].id, twin, e.digest, r.seen[i])
	default:
		return true
	}
	return false
}

// pass holds the samples of a measured loop over the cell list. Its
// wall and cpu times are reference times (probe.go); raw keeps the host
// wall times.
type pass struct {
	wall, cpu, raw [][]time.Duration // per cell, per run
	stats          []machine.Stats   // per cell, from its first run
	bad            []bool            // per cell: some run failed its check
	runs           int
	elapsed        time.Duration
	// trips are the probe round trips taken during the loop.
	trips []time.Duration
}

func newPass(n int) *pass {
	return &pass{wall: make([][]time.Duration, n), cpu: make([][]time.Duration, n), raw: make([][]time.Duration, n),
		stats: make([]machine.Stats, n), bad: make([]bool, n)}
}

func (p *pass) add(i int, e cellRun, ok bool) {
	if len(p.wall[i]) == 0 {
		p.stats[i] = e.stats
	}
	p.wall[i] = append(p.wall[i], scaled(e.wall, e.scale))
	p.cpu[i] = append(p.cpu[i], scaled(e.cpu, e.scale))
	p.raw[i] = append(p.raw[i], e.wall)
	p.runs++
	p.bad[i] = p.bad[i] || !ok
}

// okCells counts the cells whose every run passed its check.
func (p *pass) okCells() int {
	n := 0
	for _, b := range p.bad {
		if !b {
			n++
		}
	}
	return n
}

// cellWall is cell i's median wall time over its runs.
func (p *pass) cellWall(i int) time.Duration { return medianDur(p.wall[i]) }

// passWall and passCPU estimate one pass over the cell list as the sum
// of per-cell medians.
func (p *pass) passWall() time.Duration {
	var s time.Duration
	for i := range p.wall {
		s += p.cellWall(i)
	}
	return s
}

// rawPassWall is passWall in host time.
func (p *pass) rawPassWall() time.Duration {
	var s time.Duration
	for i := range p.raw {
		s += medianDur(p.raw[i])
	}
	return s
}

// sumWall is the total wall time of every run in the pass.
func (p *pass) sumWall() time.Duration {
	var s time.Duration
	for _, ws := range p.wall {
		for _, w := range ws {
			s += w
		}
	}
	return s
}

func (p *pass) passCPU() time.Duration {
	var s time.Duration
	for i := range p.cpu {
		s += medianDur(p.cpu[i])
	}
	return s
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(durMs(ds)) * float64(time.Millisecond))
}

func (p *pass) total(f func(machine.Stats) uint64) uint64 {
	var s uint64
	for _, st := range p.stats {
		s += f(st)
	}
	return s
}

// A leg is one way of running every cell: the default path, an
// accelerator-off twin (flag set), or the default path traced (tr set).
type leg struct {
	flag string
	tr   *tracer
}

// measure loops over the cells, running every leg of a cell back to
// back so that legs compare within the same stretch of host time. It
// makes whole passes over the list, as many as fit budget at the pace
// of the first but at least minPasses, so every cell gets the same
// number of runs and none is cut off at the end of the budget. A host
// probe runs before the loop and after every cell run, and each run is
// scaled by the two probes around it. It returns one pass per leg.
// Default-path legs are checked against the reference, twins against
// the default path.
func (r *runner) measure(budget time.Duration, minPasses int, legs ...leg) []*pass {
	n := len(r.cells)
	passes := make([]*pass, len(legs))
	for j := range passes {
		passes[j] = newPass(n)
	}
	probe := newHostProbe()
	defer probe.stop()
	last := probe.roundTrip()
	trips := []time.Duration{last}
	start := time.Now()
	total := n // cell runs to make; whole passes, fixed after the first
	for k := 0; k < total; k++ {
		i := k % n
		for j, l := range legs {
			cfg := r.cells[i].cfg
			group := fmt.Sprintf("%s#%d", r.cells[i].id, k/n)
			ok := true
			if l.flag != "" {
				cfg, _ = withFlag(cfg, l.flag)
				group += "/" + l.flag
			}
			e := r.exec(i, cfg, l.tr, group)
			next := probe.roundTrip()
			e.scale = scale(last, next)
			last = next
			trips = append(trips, next)
			if l.flag != "" {
				ok = r.checkTwin(i, l.flag, e)
			} else {
				ok = r.check(i, e)
			}
			passes[j].add(i, e, ok)
		}
		if k == n-1 {
			total = n * max(minPasses, int(math.Round(float64(budget)/float64(time.Since(start)))))
		}
	}
	for _, p := range passes {
		p.elapsed = time.Since(start)
		p.trips = trips
	}
	return passes
}

// crossCheck re-runs every cell on the reference path — every
// accelerator switch the build still has turned off — and requires
// the default path's digest. It stands in for the recorded reference
// on seeds that have none.
func (r *runner) crossCheck() (string, error) {
	var flags []string
	for _, f := range []string{flagNoWindows, flagNoDispatch} {
		if hasFlag(f) {
			flags = append(flags, f)
		}
	}
	if len(flags) == 0 {
		return "", fmt.Errorf("no recorded reference for this seed and no accelerator switch left to check against")
	}
	for i, c := range r.cells {
		cfg := c.cfg
		for _, f := range flags {
			cfg, _ = withFlag(cfg, f)
		}
		r.checkTwin(i, "reference-path", r.exec(i, cfg, nil, ""))
	}
	return fmt.Sprintf("no recorded reference for this seed: every cell checked against the reference path (%v)", flags), nil
}

// setupSim builds the workload's inputs and a machine pool warmed by
// resetting its machine to every cell's configuration once, setupReps
// times; it returns the last set-up and the median set-up time, each
// set-up scaled by the host probes around it.
func setupSim(w simWorkload, seed uint64, tr *tracer) ([]cell, *machine.Pool, float64, error) {
	var (
		cells []cell
		pool  *machine.Pool
		times []float64
	)
	probe := newHostProbe()
	defer probe.stop()
	last := probe.roundTrip()
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		cells = w.build(seed, tr)
		pool = new(machine.Pool)
		for _, c := range cells {
			m, err := pool.Get(c.cfg)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("set-up: %s: %w", c.id, err)
			}
			pool.Put(m)
		}
		t := time.Since(t0)
		next := probe.roundTrip()
		times = append(times, scaled(t, scale(last, next)).Seconds())
		last = next
	}
	return cells, pool, median(times), nil
}

const setupReps = 15

// runSim is one run of a simulator workload.
func runSim(name string, seed uint64, budget time.Duration, traced bool, rep *report) (*runner, *tracer, error) {
	w := simWorkloads[name]
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cells, pool, setup, err := setupSim(w, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	ref, err := referenceFor(name, seed, cells)
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(cells, pool, ref)
	if ref != nil {
		rep.infof("correctness: %d cells against the digests recorded for seed %d", len(cells), seed)
	}
	if !traced {
		// Two passes at least, so that each cell's median rests on two
		// runs even where one pass fills the budget (recovery).
		p := r.measure(budget, 2, leg{})[0]
		rep.set("setup_s", setup)
		rep.set("wall_s", p.passWall().Seconds())
		rep.set("cpu_s", p.passCPU().Seconds())
		rep.set("sim_ops_per_s", float64(p.total(simOps))/p.passWall().Seconds())
		rep.set("goodput_per_s", float64(p.okCells())/p.passWall().Seconds())
		var lat []float64
		for i := range cells {
			lat = append(lat, ms(p.cellWall(i)))
		}
		rep.set("lat_p50_ms", quantile(lat, 0.5))
		rep.set("lat_p99_ms", quantile(lat, 0.99))
		rep.infof("wall_s, cpu_s: one pass, the sum over %d cells of each cell's median; %d cell runs (%d whole passes) in %.2fs", len(cells), p.runs, p.runs/len(cells), p.elapsed.Seconds())
		trip := medianDur(p.trips)
		rep.infof("every time above is at the reference round trip of %v (probe.go); the host's median round trip was %v over %d probes (%.3fx the reference); one pass in host time: %.4fs",
			refRoundTrip, trip, len(p.trips), float64(trip)/float64(refRoundTrip), p.rawPassWall().Seconds())
		rep.infof("goodput_per_s: cells whose every run was correct, per second of one pass; lat_*: quantiles of the per-cell medians, n=%d cells", len(cells))
		if ref == nil {
			note, err := r.crossCheck()
			if err != nil {
				return nil, nil, err
			}
			rep.infof("correctness: %s", note)
		}
		rep.set("max_rss_mb", maxRSSMB())
		rep.Cells = cellSummary(cells, p)
		return r, nil, nil
	}
	return r, tr, tracedSim(r, w, seed, budget, tr, rep)
}

// tracedSim is the traced run. One loop runs, for every cell, the
// default path untraced, each accelerator-off twin, and the default path
// traced, back to back; twice the untraced budget, so the traced leg
// gathers about as many calls as an untraced run. The same-run ratios
// (windows_x, dispatch_x, trace.overhead_frac) compare legs run within
// moments of each other. The layer probes follow.
func tracedSim(r *runner, w simWorkload, seed uint64, budget time.Duration, tr *tracer, rep *report) error {
	legs := []leg{{}}
	twin := map[string]int{} // metric -> leg index
	for _, m := range []struct{ metric, flag string }{
		{"machine.windows_x", flagNoWindows},
		{"machine.dispatch_x", flagNoDispatch},
	} {
		if hasFlag(m.flag) {
			twin[m.metric] = len(legs)
			legs = append(legs, leg{flag: m.flag})
		} else {
			rep.absent(m.metric, "machine.Config has no "+m.flag)
		}
	}
	legs = append(legs, leg{tr: tr})
	rt0 := readRuntime()
	passes := r.measure(2*budget, 1, legs...)
	runtimeDelta(rep, rt0, readRuntime())
	base, p := passes[0], passes[len(passes)-1]
	for metric, j := range twin {
		rep.set(metric, passes[j].sumWall().Seconds()/base.sumWall().Seconds())
	}
	rep.set("trace.overhead_frac", p.sumWall().Seconds()/base.sumWall().Seconds()-1)
	rep.infof("same-run ratios over %d runs of each leg; untraced base %.3fs, traced %.3fs",
		p.runs, base.sumWall().Seconds(), p.sumWall().Seconds())

	// simsync: per-call time, per-algorithm time, time per event.
	// Only the traced leg records spans, so these are its simsync calls.
	var calls []float64
	var callSum time.Duration
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "simsync.") && s.End != 0 {
			calls = append(calls, ms(s.dur()))
			callSum += s.dur()
		}
	}
	byAlgo := map[string]float64{}
	for i, c := range r.cells {
		byAlgo[c.algo] += p.cellWall(i).Seconds()
	}
	if len(calls) >= 100 {
		rep.set("simsync.call_ms_p50", quantile(calls, 0.5))
		rep.set("simsync.call_ms_p90", quantile(calls, 0.9))
	} else {
		rep.absent("simsync.call_ms_p50", fmt.Sprintf("only %d calls", len(calls)))
		rep.absent("simsync.call_ms_p90", fmt.Sprintf("only %d calls", len(calls)))
	}
	for _, a := range lockAlgos {
		if v, ok := byAlgo[a]; ok {
			rep.set("simsync.lock_s."+a, v)
		}
	}
	for _, a := range barrierAlgos {
		if v, ok := byAlgo[a]; ok {
			rep.set("simsync.barrier_s."+a, v)
		}
	}
	var runsEvents uint64
	for i := range r.cells {
		runsEvents += uint64(len(p.wall[i])) * p.stats[i].Events
	}
	rep.set("simsync.ns_per_event", float64(callSum.Nanoseconds())/float64(runsEvents))

	// machine: exact counts per pass and host-path shares.
	events := p.total(func(s machine.Stats) uint64 { return s.Events })
	ops := p.total(simOps)
	rep.set("machine.events", float64(events))
	rep.set("machine.sim_ops", float64(ops))
	for _, m := range []struct {
		metric, field string
		base          uint64
	}{
		{"machine.inline_frac", "InlineOps", ops},
		{"machine.window_frac", "WindowOps", ops},
		{"machine.dispatch_per_event", "InlineDispatches", events},
	} {
		var sum uint64
		present := true
		for _, st := range p.stats {
			v, ok := counter(st, m.field)
			present = present && ok
			sum += v
		}
		if present {
			rep.set(m.metric, float64(sum)/float64(m.base))
		} else {
			rep.absent(m.metric, "machine.Stats has no "+m.field)
		}
	}
	for _, c := range r.cells {
		id := tr.begin("machine.Pool.Get", c.id, 0)
		m, err := r.pool.Get(c.cfg)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: Pool.Get: %w", c.id, err)
		}
		r.pool.Put(m)
	}
	rep.set("machine.reset_us_p50", quantile(tr.durationsMs("machine.Pool.Get"), 0.5)*1e3)

	// sim: engine step cost at two standing queue depths.
	for _, depth := range []int{16, 1024} {
		var xs []float64
		for rep := 0; rep < 5; rep++ {
			id := tr.begin("sim.Engine", fmt.Sprintf("q%d", depth), 0)
			xs = append(xs, engineStepNs(depth, 1<<20))
			tr.end(id)
		}
		rep.set(fmt.Sprintf("sim.step_ns.q%d", depth), median(xs))
	}

	// fault: plan generation, from the set-up spans.
	if gen := tr.durationsMs("fault.Generate"); len(gen) > 0 {
		var s float64
		for _, g := range gen {
			s += g
		}
		rep.set("fault.generate_ms", s/setupReps)
	} else {
		rep.absent("fault.generate_ms", "the workload generates no fault plans")
	}

	// harness: the mirrored experiment's full table.
	exp, ok := harness.Lookup(w.mirror)
	if !ok {
		return fmt.Errorf("harness has no experiment %s", w.mirror)
	}
	prev := runtime.GOMAXPROCS(harnessProcs())
	id := tr.begin("harness.Experiment.Run", w.mirror, 0)
	t0 := time.Now()
	_, err := exp.Run(harness.Options{Seed: seed})
	rep.set("harness.table_s", time.Since(t0).Seconds())
	tr.end(id)
	runtime.GOMAXPROCS(prev)
	r.attempted++
	if err != nil {
		r.fail("harness %s: %v", w.mirror, err)
	}
	rep.infof("harness.table_s: Experiment.Run of %v with %d workers (GOMAXPROCS)", exp.IDs, harnessProcs())
	return nil
}

// cellSummary is the per-cell record an untraced run leaves next to
// its spans: every run's wall time and the simulated work.
func cellSummary(cells []cell, p *pass) []cellRecord {
	out := make([]cellRecord, len(cells))
	for i, c := range cells {
		ops := simOps(p.stats[i])
		out[i] = cellRecord{ID: c.id, WallsMs: durMs(p.wall[i]), HostWallsMs: durMs(p.raw[i]), SimOps: ops,
			SimOpsPerS: float64(ops) / p.cellWall(i).Seconds()}
	}
	return out
}

// engineStepNs times AtEvent+StepPayload at a steady pending depth.
func engineStepNs(depth, steps int) float64 {
	e := sim.NewEngine()
	for i := 0; i < depth; i++ {
		e.AtEvent(sim.Time(i), sim.EvDispatch, 0, 0)
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		e.AtEvent(e.Now()+sim.Time(depth), sim.EvDispatch, 0, 0)
		e.StepPayload()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(steps)
}
