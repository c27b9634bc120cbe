package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/load"
	"repro/internal/machine"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the name and unit grammar of every metric and
// that BENCHMARK.json declares exactly the program's workloads and
// metrics.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q breaks the grammar", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q breaks the grammar", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q breaks the grammar", w)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for _, c := range []struct {
		list  string
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.json {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.specs {
			want = append(want, m.name+" "+m.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s:\n%s\nprogram:\n%s", c.list, strings.Join(got, ", "), strings.Join(want, ", "))
		}
	}
}

// smallCells is a fast slice of the storms workload: the bus P=8 cells.
func smallCells(seed uint64) []cell {
	var out []cell
	for _, c := range stormCells(seed, nil) {
		if c.cfg.Procs == 8 {
			out = append(out, c)
		}
	}
	return out
}

func digests(t *testing.T, cells []cell) []string {
	t.Helper()
	r := newRunner(cells, new(machine.Pool), nil)
	var ds []string
	for i := range cells {
		e := r.exec(i, cells[i].cfg, nil, "")
		if e.err != nil {
			t.Fatalf("%s: %v", cells[i].id, e.err)
		}
		ds = append(ds, e.digest)
	}
	return ds
}

func TestDigestsFollowSeed(t *testing.T) {
	a, b, c := digests(t, smallCells(1)), digests(t, smallCells(1)), digests(t, smallCells(2))
	if !slices.Equal(a, b) {
		t.Errorf("same seed, different digests: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("cell %d: seeds 1 and 2 digest alike (%s)", i, a[i])
		}
	}
}

func TestCorruptReferenceFails(t *testing.T) {
	cells := smallCells(1)
	ref := digests(t, cells)
	ref[1] = "corrupt"
	r := newRunner(cells, new(machine.Pool), ref)
	p := r.measure(0, 1, leg{})[0]
	if r.attempted != len(cells) || r.failed != 1 {
		t.Errorf("attempted %d failed %d, want %d and 1", r.attempted, r.failed, len(cells))
	}
	if p.okCells() != len(cells)-1 {
		t.Errorf("%d correct cells, want %d", p.okCells(), len(cells)-1)
	}
}

// TestRunsAreScaledByProbes checks that every measured run is scaled
// by the probes around it: a probe before the loop and one after every
// run, and reference time equal to host time times a positive factor.
func TestRunsAreScaledByProbes(t *testing.T) {
	cells := smallCells(1)
	p := newRunner(cells, new(machine.Pool), nil).measure(0, 1, leg{})[0]
	if len(p.trips) != p.runs+1 {
		t.Errorf("%d probes for %d runs, want one more than runs", len(p.trips), p.runs)
	}
	for i := range cells {
		for k, raw := range p.raw[i] {
			f := float64(p.wall[i][k]) / float64(raw)
			if raw <= 0 || !(f > 0) || math.IsInf(f, 0) {
				t.Errorf("%s run %d: host %v, reference %v", cells[i].id, k, raw, p.wall[i][k])
			}
		}
	}
	if got := scale(refRoundTrip, refRoundTrip); got != 1 {
		t.Errorf("scale at the reference round trip is %v, want 1", got)
	}
}

func TestDigestIgnoresHostCounters(t *testing.T) {
	base := machine.Stats{Loads: 3, PerProc: []machine.ProcStats{{Loads: 3}}}
	for _, name := range hostCounters {
		st := base
		st.PerProc = slices.Clone(base.PerProc)
		if f := reflect.ValueOf(&st).Elem().FieldByName(name); f.IsValid() {
			f.SetUint(99)
		}
		if digest(st) != digest(base) {
			t.Errorf("digest depends on host counter %s", name)
		}
	}
	changed := base
	changed.PerProc = []machine.ProcStats{{Loads: 4}}
	if digest(changed) == digest(base) {
		t.Error("digest ignores PerProc")
	}
}

func TestMissingFieldsAreAbsent(t *testing.T) {
	if _, ok := withFlag(machine.Config{}, "NoSuchSwitch"); ok {
		t.Error("withFlag found a switch that does not exist")
	}
	if _, ok := counter(machine.Stats{}, "NoSuchCounter"); ok {
		t.Error("counter found a field that does not exist")
	}
	if _, ok := counter(machine.Stats{Loads: 5}, "Loads"); !ok {
		t.Error("counter misses an existing field")
	}
}

// TestReferenceCoversWorkloads checks that the recorded digests list the
// current cell ids, so a run can use them.
func TestReferenceCoversWorkloads(t *testing.T) {
	for name, w := range simWorkloads {
		ref, err := referenceFor(name, 1, w.build(1, nil))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			t.Errorf("%s: no digests recorded for seed 1", name)
		}
	}
}

// TestGateTrial runs one traced open-loop trial (3 s) and requires its
// accounting to hold; under -race it also exercises the tracer from the
// op goroutines.
func TestGateTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 3 s trial")
	}
	tr := newTracer()
	trial := runTrial(1, len(load.ArrivalSchedule(gateRate, gateTrial, 1, true)), tr, "trial0")
	if bad := trial.check(); len(bad) > 0 {
		t.Fatal(bad)
	}
	if got := len(tr.named("load.op")); got != trial.res.Offered {
		t.Errorf("%d op spans for %d offered ops", got, trial.res.Offered)
	}
}
