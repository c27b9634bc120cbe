package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/sharded"
)

// The gate workload runs sharded.Gate at the cmd/ratelimiter defaults,
// the gate its /work handler wraps, under open-loop Poisson arrivals at
// twice the nominal capacity (permits / hold = 2000/s).
const (
	gatePermits = 4
	gateWaiters = 64
	gateHold    = 2 * time.Millisecond
	gateBudget  = 100 * time.Millisecond
	gateRate    = 4000
	gateTrial   = 3 * time.Second
)

// gateTrialResult is one open-loop trial.
type gateTrialResult struct {
	res       load.Result
	lat       []float64 // ok-op latency from scheduled arrival, ms
	cpu       time.Duration
	unexpect  int64 // acquire errors other than shed or deadline
	maxHeld   int64 // most permits held at once
	midServed int64 // ops admitted whose deadline expired while holding
	stats     sharded.GateStats
	offered   int
}

// runTrial runs one trial. Every op records its times into slices
// indexed by op, so no op waits on another to record.
func runTrial(seed uint64, sched int, tr *tracer, group string) gateTrialResult {
	g := sharded.NewGate(gatePermits, gateWaiters, 0)
	lat := make([]float64, sched)
	var held, maxHeld, unexpected, mid atomic.Int64
	op := func(ctx context.Context, i int) load.Outcome {
		entry := time.Now()
		dl, _ := ctx.Deadline()
		due := dl.Add(-gateBudget)
		opGroup := fmt.Sprintf("%s/op%d", group, i)
		root := tr.open("load.op", opGroup, 0, entry, due)
		call := tr.begin("sharded.Gate.Acquire", opGroup, root)
		err := g.Acquire(ctx)
		switch {
		case err == nil:
			tr.end(call, "ok")
		case errors.Is(err, sharded.ErrShed):
			tr.end(call, "shed")
			tr.end(root, "shed")
			return load.Shed
		case errors.Is(err, context.DeadlineExceeded):
			tr.end(call, "deadline")
			tr.end(root, "deadline")
			return load.DeadlineExceeded
		default:
			tr.end(call, "error")
			tr.end(root, "error")
			unexpected.Add(1)
			return load.DeadlineExceeded
		}
		if n := held.Add(1); n > maxHeld.Load() {
			maxHeld.Store(n) // a racy max still shows any overshoot past the permits
		}
		hold := tr.begin("hold", opGroup, root)
		select {
		case <-time.After(gateHold):
		case <-ctx.Done():
			held.Add(-1)
			g.Release()
			mid.Add(1)
			tr.end(hold, "deadline")
			tr.end(root, "deadline")
			return load.DeadlineExceeded
		}
		tr.end(hold, "ok")
		held.Add(-1)
		g.Release()
		lat[i] = ms(time.Since(due))
		tr.end(root, "ok")
		return load.OK
	}
	c0 := cpuTime()
	res := load.RunOpen(op, load.OpenOpts{Rate: gateRate, Duration: gateTrial, Deadline: gateBudget, Seed: seed})
	out := gateTrialResult{res: res, cpu: cpuTime() - c0, unexpect: unexpected.Load(),
		maxHeld: maxHeld.Load(), midServed: mid.Load(), stats: g.Stats(), offered: sched}
	for _, l := range lat {
		if l > 0 {
			out.lat = append(out.lat, l)
		}
	}
	return out
}

// check returns what is wrong with a trial's outputs.
func (t gateTrialResult) check() []string {
	var bad []string
	r, st := t.res, t.stats
	if r.Offered != t.offered || !r.Accounted() {
		bad = append(bad, fmt.Sprintf("accounting: offered %d of %d scheduled, ok+shed+deadline=%d", r.Offered, t.offered, r.OK+r.Shed+r.Deadline))
	}
	if t.unexpect > 0 {
		bad = append(bad, fmt.Sprintf("%d unexpected acquire errors", t.unexpect))
	}
	if t.maxHeld > gatePermits {
		bad = append(bad, fmt.Sprintf("%d permits held at once, capacity %d", t.maxHeld, gatePermits))
	}
	if st.Admitted != r.OK+t.midServed || st.Shed != r.Shed || st.TimedOut != r.Deadline-t.midServed ||
		st.Canceled != 0 || st.InFlight != 0 || st.Waiting != 0 {
		bad = append(bad, fmt.Sprintf("gate counters %+v disagree with outcomes ok=%d shed=%d deadline=%d (mid-service %d)",
			st, r.OK, r.Shed, r.Deadline, t.midServed))
	}
	if int64(len(t.lat)) != r.OK {
		bad = append(bad, fmt.Sprintf("%d latencies for %d ok ops", len(t.lat), r.OK))
	}
	return bad
}

// runGate is one run of the gate workload: trials until budget has
// elapsed, at least one (two when traced: one untraced, one traced).
func runGate(seed uint64, budget time.Duration, traced bool, rep *report) (attempted, failed int, problems []string, tr *tracer) {
	// Set-up: the trials' arrival schedules and a fresh gate.
	var setups []float64
	var scheds []int
	for s := 0; s < setupReps; s++ {
		runtime.GC()
		t0 := time.Now()
		scheds = scheds[:0]
		for trial := 0; trial < max(2, int(budget/gateTrial)+1); trial++ {
			scheds = append(scheds, len(load.ArrivalSchedule(gateRate, gateTrial, mix(seed, uint64(trial)), true)))
		}
		_ = sharded.NewGate(gatePermits, gateWaiters, 0)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var trials, tracedTrials []gateTrialResult
	start := time.Now()
	rt0 := readRuntime()
	for k := 0; k < len(scheds); k++ {
		if traced && k == 1 {
			tr = newTracer()
			rt0 = readRuntime()
		}
		t := runTrial(mix(seed, uint64(k)), scheds[k], tr, fmt.Sprintf("trial%d", k))
		attempted += t.res.Offered
		if bad := t.check(); len(bad) > 0 {
			// A trial whose accounting is off cannot vouch for any op.
			failed += t.res.Offered
			problems = append(problems, bad...)
		}
		if tr != nil {
			tracedTrials = append(tracedTrials, t)
		} else {
			trials = append(trials, t)
		}
		if time.Since(start)+gateTrial > budget && (!traced || len(tracedTrials) > 0) {
			break
		}
	}

	if !traced {
		var wall, cpu, goodput, rate, lat []float64
		var shed, dl, offered int64
		for _, t := range trials {
			wall = append(wall, t.res.Elapsed.Seconds())
			cpu = append(cpu, t.cpu.Seconds())
			goodput = append(goodput, t.res.GoodputPerSec())
			rate = append(rate, float64(t.res.Offered)/t.res.Elapsed.Seconds())
			lat = append(lat, t.lat...)
			shed += t.res.Shed
			dl += t.res.Deadline
			offered += int64(t.res.Offered)
		}
		rep.set("setup_s", median(setups))
		rep.set("wall_s", median(wall))
		rep.set("cpu_s", median(cpu))
		rep.set("sim_ops_per_s", median(rate))
		rep.set("goodput_per_s", median(goodput))
		rep.set("lat_p50_ms", quantile(lat, 0.5))
		rep.set("lat_p99_ms", quantile(lat, 0.99))
		rep.set("max_rss_mb", maxRSSMB())
		rep.infof("gate-open-loop: %d trials of %v at %d/s Poisson; wall_s, cpu_s, goodput_per_s: per-trial medians", len(trials), gateTrial, gateRate)
		rep.infof("sim_ops_per_s on this workload: gate operations (offered ops) per host second; nothing is simulated")
		rep.infof("lat_*: ok ops only, from the scheduled arrival, n=%d (%d beyond p99)", len(lat), len(lat)/100)
		rep.infof("failed_frac (deadline or error over offered) = %d/%d = %.4f; shed %d/%d = %.4f; nominal capacity %d/s",
			dl, offered, float64(dl)/float64(offered), shed, offered, float64(shed)/float64(offered), int(gatePermits*time.Second/gateHold))
		return
	}

	runtimeDelta(rep, rt0, readRuntime())
	var late, acq, over []float64
	for _, s := range tr.named("load.op") {
		late = append(late, ms(time.Duration(s.Start-s.Due)))
	}
	for _, s := range tr.named("sharded.Gate.Acquire") {
		if s.Tag == "ok" {
			acq = append(acq, ms(s.dur()))
		}
	}
	for _, s := range tr.named("hold") {
		if s.Tag != "ok" {
			continue
		}
		over = append(over, float64(s.dur()-gateHold)/float64(time.Microsecond))
	}
	var offered, shed, dl int64
	var wall []float64
	for _, t := range tracedTrials {
		offered += int64(t.res.Offered)
		shed += t.res.Shed
		dl += t.res.Deadline
		wall = append(wall, t.res.Elapsed.Seconds())
	}
	rep.set("load.late_ms_p99", quantile(late, 0.99))
	rep.set("sharded.acquire_ms_p50", quantile(acq, 0.5))
	rep.set("sharded.acquire_ms_p99", quantile(acq, 0.99))
	rep.set("sharded.shed_frac", float64(shed)/float64(offered))
	rep.set("sharded.deadline_frac", float64(dl)/float64(offered))
	rep.set("sharded.hold_overshoot_us_p50", quantile(over, 0.5))
	rep.set("trace.overhead_frac", median(wall)/trials[0].res.Elapsed.Seconds()-1)
	rep.infof("load.late_ms_p99 over %d ops; sharded.acquire_ms over the %d admitted Acquire calls; hold overshoot over %d holds",
		len(late), len(acq), len(over))
	rep.absent("harness.table_s", "no harness experiment mirrors this workload")
	return
}
