// Command perfbench is the repository's benchmark: one workload per
// run, measured end to end untraced (--trace 0) or layer by layer
// traced (--trace 1), with every output checked. It drives each layer
// only through its public functions and times the calls from outside.
//
// Build and run it from the repository root with
//
//	python3 perfbench/run.py --workload storms --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines before
// it name every metric with its unit. NOTES.md describes the workloads,
// the metrics and the recorded findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads lists every workload in BENCHMARK.json order.
var workloads = []string{"locks-polling", "storms", "recovery", "gate-open-loop"}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measurement budget per phase, seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
		recordTo = flag.String("record", "", "record the reference digests to this file and exit")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	// Every workload runs on one scheduler thread. A simulated run is
	// sequential by construction — the goroutine baton lets one
	// simulated processor run at a time — so there a baton handoff is a
	// goroutine switch rather than a cross-thread wake-up. The gate's
	// goroutines and its load generator share the thread too: with two
	// threads its ok-op p50 followed the speed of cross-thread wake-ups
	// on a shared host, 6–13 ms from run to run of the same code, with
	// one 3.7–3.9 ms (NOTES.md). The harness tables keep their parallel
	// workers (harnessProcs).
	runtime.GOMAXPROCS(1)

	if *recordTo != "" {
		if err := record(*recordTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// harnessProcs is the scheduler thread count of the harness tables,
// whose workers run cells in parallel.
func harnessProcs() int { return min(2, runtime.NumCPU()) }

// outDir receives each run's report and spans, inside the checkout.
const outDir = ".bench_build/perfbench"

func run(workload string, seed uint64, budget time.Duration, traced bool) error {
	rep := newReport()
	rep.infof("%s", fingerprint())
	steal0, stealOK := hostSteal()
	start := time.Now()
	rep.infof("workload %s seed %d budget %v traced=%v", workload, seed, budget, traced)
	var (
		attempted, failed int
		problems          []string
		tr                *tracer
	)
	switch {
	case workload == "gate-open-loop":
		attempted, failed, problems, tr = runGate(seed, budget, traced, rep)
	case simWorkloads[workload].build != nil:
		r, simTr, err := runSim(workload, seed, budget, traced, rep)
		if err != nil {
			return err
		}
		attempted, failed, problems, tr = r.attempted, r.failed, r.problems, simTr
	default:
		return fmt.Errorf("unknown workload %q (known: %s)", workload, strings.Join(workloads, ", "))
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	// Time the hypervisor ran other guests on this guest's CPUs: the
	// host-side interference behind run-to-run spread (see NOTES.md).
	if steal1, ok := hostSteal(); ok && stealOK {
		capacity := time.Since(start).Seconds() * float64(runtime.NumCPU()) * 100 // ticks at USER_HZ=100
		rep.infof("host steal during the run: %.1f%% of the guest's CPU capacity", 100*float64(steal1-steal0)/capacity)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := rep.finish(os.Stdout, specs)
	rep.infof("failed_frac = %d/%d", failed, attempted)
	fmt.Printf("# failed_frac = %d/%d\n", failed, attempted)
	if tr == nil {
		tr = &tracer{} // no spans: the file carries the report alone
	}
	kind := map[bool]string{false: "run", true: "trace"}[traced]
	path := filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, workload, seed))
	if err := tr.write(path, rep); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# report and %d spans written to %s\n", len(tr.spans), path)
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
