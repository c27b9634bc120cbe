package main

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// A cell is one simulated run: one algorithm on one machine shape. The
// benchmark builds every cell from the workload seed alone, so the
// program sees only the generated inputs.
type cell struct {
	id   string // e.g. "lock/qsync/numa/p16"
	algo string // algorithm name, for the per-algorithm host time
	cfg  machine.Config
	// layer names the public function the cell calls, for its span.
	layer string
	run   func(pool *machine.Pool, cfg machine.Config) (result any, st machine.Stats, err error)
}

// simWorkload is one simulator workload: its cell list and the harness
// experiment whose table it mirrors.
type simWorkload struct {
	mirror string
	// build makes the cell list; tr, when non-nil, records a span around
	// every fault.Generate call.
	build func(seed uint64, tr *tracer) []cell
}

var simWorkloads = map[string]simWorkload{
	"locks-polling": {mirror: "F3", build: locksPollingCells},
	"storms":        {mirror: "SC1", build: stormCells},
	"recovery":      {mirror: "FT3", build: recoveryCells},
}

// mix derives an independent nonzero 64-bit seed from the workload seed
// and a stream index (splitmix64), so neighbouring cells do not share
// random streams and no derived seed is the machine's "use default" 0.
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (stream+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// standardLockOpts is the harness's standard lock workload (F1/F3).
var standardLockOpts = simsync.LockOpts{Iters: 80, CS: 25, Think: 50, CheckMutex: true}

func lockCell(info simsync.LockInfo, tp topo.Topology, procs int, seed uint64, opts simsync.LockOpts) cell {
	return cell{
		id:    fmt.Sprintf("lock/%s/%s/p%d", info.Name, tp.Name(), procs),
		algo:  info.Name,
		cfg:   machine.Config{Procs: procs, Topo: tp, Seed: seed},
		layer: "simsync.RunLockIn",
		run: func(pool *machine.Pool, cfg machine.Config) (any, machine.Stats, error) {
			res, err := simsync.RunLockIn(pool, cfg, info, opts)
			return res, res.Stats, err
		},
	}
}

// locksPollingCells is the F3/L1-cluster shape: every registered lock on
// numa and cluster across the P ladder, fault-free.
func locksPollingCells(seed uint64, _ *tracer) []cell {
	var cells []cell
	for _, tp := range []topo.Topology{topo.NUMA, topo.Cluster} {
		for _, p := range []int{2, 4, 8, 16, 32, 64} {
			for _, info := range simsync.Locks() {
				cells = append(cells, lockCell(info, tp, p, mix(seed, uint64(len(cells))), standardLockOpts))
			}
		}
	}
	return cells
}

// stormCells is the SC1/BENCH_sim shape: test&set storms, where most
// operations retire in the spin-window closed forms. Iterations shrink
// at the deep points as in BENCH_sim.json, keeping cell cost flat.
func stormCells(seed uint64, _ *tracer) []cell {
	var cells []cell
	add := func(name string, tp topo.Topology, p int) {
		info, ok := simsync.LockByName(name)
		if !ok {
			panic("perfbench: lock " + name + " is not registered")
		}
		opts := standardLockOpts
		switch {
		case p >= 1024:
			opts.Iters = 2
		case p >= 256:
			opts.Iters = 8
		}
		cells = append(cells, lockCell(info, tp, p, mix(seed, uint64(len(cells))), opts))
	}
	for _, name := range []string{"tas", "ttas", "tas-bo"} {
		for _, p := range []int{8, 32, 64} {
			add(name, topo.Bus, p)
		}
	}
	for _, tp := range []topo.Topology{topo.NUMA, topo.Cluster} {
		for _, p := range []int{32, 256, 1024} {
			add("tas", tp, p)
		}
	}
	return cells
}

// Recovery shape: the FT3 lock columns and FT4 barrier columns at the
// harness's full-size parameters.
const (
	recoveryProcs    = 16
	recoveryBarProcs = 32
	recoveryIters    = 80
	recoveryEpisodes = 25
	recoveryMaxSteps = 2_000_000
)

var recoveryLevels = []string{"L0", "L2", "R1", "R2"}

func recoveryLocks() []simsync.LockInfo {
	qs, _ := simsync.LockByName("qsync")
	td, _ := simsync.LockByName("tas-deadline")
	return []simsync.LockInfo{
		qs,
		td,
		{Name: "lease-ft", Make: func(m *machine.Machine) simsync.Lock { return simsync.NewLeaseTerm(m, 16000, 64) }},
		{Name: "fence-ft", Make: func(m *machine.Machine) simsync.Lock { return simsync.NewLeaseFenceTerm(m, 16000, 64) }},
		{Name: "qheal-ft", FIFO: true, Make: func(m *machine.Machine) simsync.Lock { return simsync.NewHealQueueGrace(m, 32768, 64) }},
	}
}

type recoveryBarrier struct {
	name string
	mk   func(*machine.Machine) simsync.Barrier
}

func recoveryBarriers() []recoveryBarrier {
	central, _ := simsync.BarrierByName("central")
	return []recoveryBarrier{
		{"central", central.Make},
		{"straggler", func(m *machine.Machine) simsync.Barrier { return simsync.NewStragglerBarrier(m, 4096) }},
		{"reconf", func(m *machine.Machine) simsync.Barrier { return simsync.NewReconfBudget(m, 4096) }},
	}
}

// recoveryInstances is how many independently seeded fault plans each
// (topology, level) row gets. Whether a column wedges into its step
// limit depends on where the plan's crash lands: a wedged tas-deadline
// or central-barrier cell costs 15–25 times a normal one. Over ten
// seeds, the simulated work of a pass spread −9%…+4% around its median
// with three plans per row and −6%…+4% with six.
const recoveryInstances = 6

// recoveryCells drives the FT3/FT4 columns through fault plans
// generated from the workload seed.
func recoveryCells(seed uint64, tr *tracer) []cell {
	lockOpts := simsync.RecoveryLockOpts{Iters: recoveryIters, CS: 25, Think: 50, Budget: 4096, MaxSteps: recoveryMaxSteps}
	barOpts := simsync.RecoveryBarrierOpts{Episodes: recoveryEpisodes, Work: 150, MaxSteps: recoveryMaxSteps}
	gen := func(name string, planSeed uint64, sp fault.Spec) *fault.Plan {
		id := tr.begin("fault.Generate", name, 0)
		defer tr.end(id)
		return fault.Generate(name, planSeed, sp)
	}
	var cells []cell
	for _, tp := range []topo.Topology{topo.NUMA, topo.Cluster} {
		for _, name := range recoveryLevels {
			lv, ok := harness.FaultLevelByName(name)
			if !ok {
				panic("perfbench: fault level " + name + " is not registered")
			}
			for k := 0; k < recoveryInstances; k++ {
				row := fmt.Sprintf("%s/%s/i%d", tp.Name(), name, k)
				plan, bplan := fault.NewPlan(name), fault.NewPlan(name)
				if !lv.None {
					planSeed := mix(seed, uint64(1000+len(cells)))
					plan = gen(row, planSeed, lv.Spec(recoveryProcs, recoveryIters))
					bplan = gen(row+"/bar", planSeed+17, lv.Spec(recoveryBarProcs, recoveryEpisodes))
				}
				for _, info := range recoveryLocks() {
					cells = append(cells, cell{
						id:    fmt.Sprintf("recovery-lock/%s/%s", info.Name, row),
						algo:  info.Name,
						cfg:   machine.Config{Procs: recoveryProcs, Topo: tp, Seed: mix(seed, uint64(len(cells)))},
						layer: "simsync.RunLockRecovery",
						run: func(pool *machine.Pool, cfg machine.Config) (any, machine.Stats, error) {
							res, err := simsync.RunLockRecovery(pool, cfg, info, plan, lockOpts)
							return res, res.Stats, err
						},
					})
				}
				for _, b := range recoveryBarriers() {
					cells = append(cells, cell{
						id:    fmt.Sprintf("recovery-barrier/%s/%s", b.name, row),
						algo:  b.name,
						cfg:   machine.Config{Procs: recoveryBarProcs, Topo: tp, Seed: mix(seed, uint64(len(cells)))},
						layer: "simsync.RunBarrierRecovery",
						run: func(pool *machine.Pool, cfg machine.Config) (any, machine.Stats, error) {
							res, err := simsync.RunBarrierRecovery(pool, cfg, b.name, b.mk, bplan, barOpts)
							return res, res.Stats, err
						},
					})
				}
			}
		}
	}
	return cells
}

// simOps is the simulated work of one run: loads, stores and RMWs.
func simOps(st machine.Stats) uint64 { return st.Loads + st.Stores + st.RMWs }
