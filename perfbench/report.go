package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metric lists BENCHMARK.json declares.
// Every run prints every end-to-end metric untraced (--trace 0) and
// every per-layer metric traced (--trace 1).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
	{"goodput_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
}

// lockAlgos are the algorithms with a simsync.lock_s metric: the
// registered locks and the recovery-only lock columns.
var lockAlgos = []string{"tas", "ttas", "tas-bo", "ticket", "ticket-bo", "anderson", "gt", "qsync",
	"tas-deadline", "lease", "lease-fence", "qheal", "lease-ft", "fence-ft", "qheal-ft"}

// barrierAlgos are the FT4 barrier columns.
var barrierAlgos = []string{"central", "straggler", "reconf"}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"harness.table_s", "s"},
		{"simsync.call_ms_p50", "ms"},
		{"simsync.call_ms_p90", "ms"},
	}
	for _, a := range lockAlgos {
		m = append(m, metricSpec{"simsync.lock_s." + a, "s"})
	}
	for _, a := range barrierAlgos {
		m = append(m, metricSpec{"simsync.barrier_s." + a, "s"})
	}
	return append(m, []metricSpec{
		{"simsync.ns_per_event", "ns"},
		{"machine.events", "count"},
		{"machine.sim_ops", "count"},
		{"machine.inline_frac", "ratio"},
		{"machine.window_frac", "ratio"},
		{"machine.dispatch_per_event", "ratio"},
		{"machine.windows_x", "x"},
		{"machine.dispatch_x", "x"},
		{"machine.reset_us_p50", "us"},
		{"sim.step_ns.q16", "ns"},
		{"sim.step_ns.q1024", "ns"},
		{"fault.generate_ms", "ms"},
		{"load.late_ms_p99", "ms"},
		{"sharded.acquire_ms_p50", "ms"},
		{"sharded.acquire_ms_p99", "ms"},
		{"sharded.shed_frac", "ratio"},
		{"sharded.deadline_frac", "ratio"},
		{"sharded.hold_overshoot_us_p50", "us"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"go.sched_lat_us_p99", "us"},
		{"go.cpu_idle_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics. A metric the workload does not
// exercise, or whose field the program no longer has, is absent: it
// prints with its reason and carries the value 0 in the result line.
type report struct {
	Metrics map[string]metric `json:"metrics"`
	Absent  map[string]string `json:"absent,omitempty"`
	Info    []string          `json:"info,omitempty"` // sample counts, bases, fingerprint
	Cells   []cellRecord      `json:"cells,omitempty"`
}

// cellRecord is one cell of an untraced run: every run's wall time (in
// reference and in host time), the simulated work of one run, and the
// work rate at the median run.
type cellRecord struct {
	ID          string    `json:"id"`
	WallsMs     []float64 `json:"walls_ms"`
	HostWallsMs []float64 `json:"host_walls_ms"`
	SimOps      uint64    `json:"sim_ops"`
	SimOpsPerS  float64   `json:"sim_ops_per_s"`
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Absent: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = metric{Value: v} }

func (r *report) absent(name, reason string) {
	r.Metrics[name] = metric{}
	r.Absent[name] = reason
}

func (r *report) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish keeps exactly the metrics of specs, marking any not measured
// as absent, and prints the human-readable lines.
func (r *report) finish(w io.Writer, specs []metricSpec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		m, ok := r.Metrics[s.name]
		if !ok {
			r.absent(s.name, "not exercised by this workload")
		}
		m.Unit = s.unit
		r.Metrics[s.name] = m
		out[s.name] = m
		if reason, ok := r.Absent[s.name]; ok {
			fmt.Fprintf(w, "%-34s absent (%s)\n", s.name, reason)
		} else {
			fmt.Fprintf(w, "%-34s %.6g %s\n", s.name, m.Value, s.unit)
		}
	}
	for _, line := range r.Info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	return out
}

// ---------------------------------------------------------------------
// Statistics

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ---------------------------------------------------------------------
// Host and process

// fingerprint describes the host a run measured on.
func fingerprint() string {
	return fmt.Sprintf("host GOMAXPROCS=%d nproc=%d go=%s cpu=%q",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSteal reads the cumulative CPU time the hypervisor gave to other
// guests (the steal column of /proc/stat), in clock ticks; ok is false
// where the host does not report it.
func hostSteal() (ticks uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	return v, err == nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// rtSample is a snapshot of the Go runtime metrics the benchmark
// reports, with the process CPU time and the wall clock.
type rtSample struct {
	s   []metrics.Sample
	cpu time.Duration
	at  time.Time
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{s, cpuTime(), time.Now()}
}

// runtimeDelta reports the go.* metrics over the interval a..b. The
// idle share is of the GOMAXPROCS threads' capacity: 1 - CPU time /
// (wall time x GOMAXPROCS).
func runtimeDelta(r *report, a, b rtSample) {
	r.set("go.alloc_mb", float64(b.s[0].Value.Uint64()-a.s[0].Value.Uint64())/(1<<20))
	r.set("go.gc_cycles", float64(b.s[1].Value.Uint64()-a.s[1].Value.Uint64()))
	ha, hb := a.s[2].Value.Float64Histogram(), b.s[2].Value.Float64Histogram()
	var total uint64
	counts := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		r.absent("go.sched_lat_us_p99", "no goroutine became runnable")
	} else {
		var cum uint64
		for i, c := range counts {
			cum += c
			if float64(cum) >= 0.99*float64(total) {
				// The bucket's upper bound; the last bucket is open.
				hi := hb.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = hb.Buckets[i]
				}
				r.set("go.sched_lat_us_p99", hi*1e6)
				break
			}
		}
	}
	capacity := b.at.Sub(a.at).Seconds() * float64(runtime.GOMAXPROCS(0))
	r.set("go.cpu_idle_frac", 1-(b.cpu-a.cpu).Seconds()/capacity)
}
