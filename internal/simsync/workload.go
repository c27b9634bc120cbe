package simsync

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// LockOpts configures a simulated lock workload.
type LockOpts struct {
	Iters int      // acquisitions per processor (ignored if Duration > 0)
	CS    sim.Time // work performed inside the critical section
	Think sim.Time // mean exponential think time between acquisitions

	// Duration, when positive, switches to open-ended mode: processors
	// acquire repeatedly until the virtual clock passes Duration. This is
	// the mode used for fairness measurements, where per-processor
	// acquisition counts are allowed to diverge.
	Duration sim.Time

	CheckMutex  bool // verify mutual exclusion with a read-delay-write counter
	RecordOrder bool // record enqueue/grant times for FIFO analysis
}

// LockResult is the outcome of one lock workload run.
type LockResult struct {
	Lock         string
	Topo         topo.Topology
	Procs        int
	Acquisitions uint64
	Cycles       sim.Time
	CyclesPerAcq float64
	// TrafficPerAcq is interconnect transactions (bus transactions or
	// remote references, per the model) per acquisition.
	TrafficPerAcq float64
	AcqPerProc    []uint64
	// FIFOInversions counts pairs granted out of arrival order
	// (normalized later by the harness; exact queue locks score 0).
	FIFOInversions uint64
	Stats          machine.Stats
}

// grantRecord captures one acquisition for fairness/FIFO analysis.
type grantRecord struct {
	enqueue sim.Time // time Acquire was entered
	grant   sim.Time // time Acquire returned
}

// RunLock executes a standard critical-section workload for one lock
// algorithm on a fresh machine and verifies the lock's safety invariants
// as it goes. Any invariant violation is returned as an error: a broken
// lock must never produce a data point.
func RunLock(cfg machine.Config, info LockInfo, opts LockOpts) (LockResult, error) {
	return RunLockIn(nil, cfg, info, opts)
}

// RunLockIn is RunLock drawing its machine from pool (see machines.go).
func RunLockIn(pool *machine.Pool, cfg machine.Config, info LockInfo, opts LockOpts) (LockResult, error) {
	cfg = cfg.Defaults()
	m, err := getMachine(pool, cfg)
	if err != nil {
		return LockResult{}, err
	}
	defer putMachine(pool, m)
	lock := info.Make(m)

	var counter machine.Addr
	if opts.CheckMutex {
		counter = m.AllocShared(1)
	}

	procs := cfg.Procs
	acqPerProc := make([]uint64, procs)
	inCS := 0
	overlaps := 0
	var records []grantRecord

	body := func(p *machine.Proc) {
		rng := p.RNG()
		for it := 0; ; it++ {
			if opts.Duration > 0 {
				if p.Now() >= opts.Duration {
					return
				}
			} else if it >= opts.Iters {
				return
			}
			if opts.Think > 0 {
				p.Delay(rng.ExpTime(opts.Think))
			}
			enq := p.Now()
			lock.Acquire(p)
			// Host-side bracket check: the simulator interleaves only at
			// yield points, so this counter detects any overlap exactly.
			inCS++
			if inCS != 1 {
				overlaps++
			}
			if opts.RecordOrder {
				records = append(records, grantRecord{enqueue: enq, grant: p.Now()})
			}
			if opts.CheckMutex {
				v := p.Load(counter)
				if opts.CS > 0 {
					p.Delay(opts.CS)
				}
				p.Store(counter, v+1)
			} else if opts.CS > 0 {
				p.Delay(opts.CS)
			}
			acqPerProc[p.ID()]++
			inCS--
			lock.Release(p)
		}
	}

	if err := m.Run(body); err != nil {
		return LockResult{}, fmt.Errorf("lock %q: %w", info.Name, err)
	}

	var total uint64
	for _, c := range acqPerProc {
		total += c
	}
	if overlaps > 0 {
		return LockResult{}, fmt.Errorf("lock %q violated mutual exclusion %d times", info.Name, overlaps)
	}
	if opts.CheckMutex {
		if got := m.Peek(counter); uint64(got) != total {
			return LockResult{}, fmt.Errorf("lock %q lost updates: counter=%d, acquisitions=%d", info.Name, got, total)
		}
	}

	st := m.Stats()
	res := LockResult{
		Lock:         info.Name,
		Topo:         cfg.Topo,
		Procs:        procs,
		Acquisitions: total,
		Cycles:       st.Cycles,
		AcqPerProc:   acqPerProc,
		Stats:        st,
	}
	if total > 0 {
		// System-level time per acquisition (elapsed cycles over total
		// acquisitions), the 1991 papers' metric: under full contention
		// the lock system completes one critical section per
		// (CS + hand-off) regardless of P, so scalable locks plot flat
		// and traffic-bound locks climb.
		res.CyclesPerAcq = float64(st.Cycles) / float64(total)
		res.TrafficPerAcq = float64(st.TrafficFor(cfg.Topo)) / float64(total)
	}
	if opts.RecordOrder {
		res.FIFOInversions = countInversions(records)
	}
	return res, nil
}

// countInversions counts pairs (i, j) where request i entered Acquire
// strictly before request j but was granted strictly after it. Records
// arrive in grant order (the simulator is single-threaded), so this is
// the number of enqueue-time inversions in that sequence, counted with a
// mergesort in O(n log n).
func countInversions(records []grantRecord) uint64 {
	keys := make([]sim.Time, len(records))
	for i, r := range records {
		keys[i] = r.enqueue
	}
	buf := make([]sim.Time, len(keys))
	return mergeCount(keys, buf)
}

func mergeCount(keys, buf []sim.Time) uint64 {
	n := len(keys)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(keys[:mid], buf[:mid]) + mergeCount(keys[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if keys[i] <= keys[j] {
			buf[k] = keys[i]
			i++
		} else {
			// keys[j] entered earlier than everything left in [i, mid):
			// those were granted before it despite arriving later.
			inv += uint64(mid - i)
			buf[k] = keys[j]
			j++
		}
		k++
	}
	copy(buf[k:], keys[i:mid])
	copy(buf[k+mid-i:], keys[j:])
	copy(keys, buf[:n])
	return inv
}

// BarrierOpts configures a simulated barrier workload.
type BarrierOpts struct {
	Episodes int      // barrier episodes to run
	Work     sim.Time // mean exponential work per phase per processor
}

// BarrierResult is the outcome of one barrier workload run.
type BarrierResult struct {
	Barrier           string
	Topo              topo.Topology
	Procs             int
	Episodes          int
	Cycles            sim.Time
	CyclesPerEpisode  float64
	TrafficPerEpisode float64
	Stats             machine.Stats
}

// RunBarrier executes Episodes barrier episodes with optional skewed
// work between them, verifying the barrier's safety property: no
// processor may leave episode e before every processor has arrived at
// episode e.
func RunBarrier(cfg machine.Config, info BarrierInfo, opts BarrierOpts) (BarrierResult, error) {
	return RunBarrierIn(nil, cfg, info, opts)
}

// RunBarrierIn is RunBarrier drawing its machine from pool.
func RunBarrierIn(pool *machine.Pool, cfg machine.Config, info BarrierInfo, opts BarrierOpts) (BarrierResult, error) {
	cfg = cfg.Defaults()
	m, err := getMachine(pool, cfg)
	if err != nil {
		return BarrierResult{}, err
	}
	defer putMachine(pool, m)
	bar := info.Make(m)

	procs := cfg.Procs
	arrived := make([]int, opts.Episodes) // host-side arrival counts
	violations := 0

	body := func(p *machine.Proc) {
		rng := p.RNG()
		for e := 0; e < opts.Episodes; e++ {
			if opts.Work > 0 {
				p.Delay(rng.ExpTime(opts.Work))
			}
			arrived[e]++
			bar.Wait(p)
			if arrived[e] != procs {
				violations++
			}
		}
	}

	if err := m.Run(body); err != nil {
		return BarrierResult{}, fmt.Errorf("barrier %q: %w", info.Name, err)
	}
	if violations > 0 {
		return BarrierResult{}, fmt.Errorf("barrier %q released %d waiters early", info.Name, violations)
	}

	st := m.Stats()
	res := BarrierResult{
		Barrier:  info.Name,
		Topo:     cfg.Topo,
		Procs:    procs,
		Episodes: opts.Episodes,
		Cycles:   st.Cycles,
		Stats:    st,
	}
	if opts.Episodes > 0 {
		res.CyclesPerEpisode = float64(st.Cycles) / float64(opts.Episodes)
		res.TrafficPerEpisode = float64(st.TrafficFor(cfg.Topo)) / float64(opts.Episodes)
	}
	return res, nil
}

// UncontendedLockCost measures the latency in cycles of a single
// acquire/release pair with no contention whatsoever (T1).
func UncontendedLockCost(tp topo.Topology, info LockInfo) (acquireRelease sim.Time, traffic uint64, err error) {
	return UncontendedLockCostIn(nil, tp, info)
}

// UncontendedLockCostIn is UncontendedLockCost drawing its machine
// from pool (see machines.go): the T1 table and its benchmark measure
// one acquire/release pair per machine, so without pooling the
// dominant cost of the sweep is machine construction, not simulation.
func UncontendedLockCostIn(pool *machine.Pool, tp topo.Topology, info LockInfo) (acquireRelease sim.Time, traffic uint64, err error) {
	m, err := getMachine(pool, machine.Config{Procs: 1, Topo: tp})
	if err != nil {
		return 0, 0, err
	}
	defer putMachine(pool, m)
	lock := info.Make(m)
	var start, end sim.Time
	var trafBefore uint64
	err = m.Run(func(p *machine.Proc) {
		// Warm the caches with one throwaway pair.
		lock.Acquire(p)
		lock.Release(p)
		trafBefore = m.Stats().TrafficFor(tp)
		start = p.Now()
		lock.Acquire(p)
		lock.Release(p)
		end = p.Now()
	})
	if err != nil {
		return 0, 0, err
	}
	return end - start, m.Stats().TrafficFor(tp) - trafBefore, nil
}
