package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The -simjson flag must accumulate a trajectory: new snapshots merge
// into the existing file instead of overwriting it, and a file in any
// other layout is refused rather than emptied and overwritten.

func TestLoadSimBenchRefusesSingleSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	single := `{
  "experiment": "simulator hot-path throughput",
  "quick": false,
  "results": [
    {"workload": "lock/tas", "model": "bus", "procs": 8,
     "sim_ops_per_sec": 1000, "events_per_sec": 900, "inline_ops_frac": 0.1}
  ]
}`
	if err := os.WriteFile(path, []byte(single), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSimBench(path); err == nil {
		t.Fatal("a single-snapshot file (top-level results, no snapshots) loaded without error")
	}
	if err := writeSimBench(path, true, "refused"); err == nil {
		t.Fatal("writeSimBench merged into a single-snapshot file")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != single {
		t.Fatalf("the refused file was rewritten (err %v)", err)
	}
}

func TestLoadSimBenchMissingFile(t *testing.T) {
	f, err := loadSimBench(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing file should yield an empty trajectory, got %v", err)
	}
	if len(f.Snapshots) != 0 {
		t.Fatalf("expected empty trajectory, got %d snapshots", len(f.Snapshots))
	}
}

func TestMergeSimSnapshotAppendsAndReplaces(t *testing.T) {
	base := simBenchSnapshot{Date: "2026-07-01", Label: "baseline", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 1}}}
	var f simBenchFile
	f, err := mergeSimSnapshot(f, base)
	if err != nil {
		t.Fatal(err)
	}
	// A different label on the same date is a distinct milestone: append.
	next := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 3}}}
	if f, err = mergeSimSnapshot(f, next); err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 2 {
		t.Fatalf("distinct labels should append: got %d snapshots", len(f.Snapshots))
	}
	// Re-running the same (date, label, quick) measurement replaces it.
	rerun := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 4}}}
	if f, err = mergeSimSnapshot(f, rerun); err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 2 {
		t.Fatalf("rerun should replace, not append: got %d snapshots", len(f.Snapshots))
	}
	if got := f.Snapshots[1].Results[0].SimOpsPerSec; got != 4 {
		t.Fatalf("rerun did not replace the matching snapshot: %v", got)
	}
	// The same label on a later date is a new trajectory point: append.
	later := simBenchSnapshot{Date: "2026-07-02", Label: "batched"}
	if f, err = mergeSimSnapshot(f, later); err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 3 {
		t.Fatalf("later date should append: got %d snapshots", len(f.Snapshots))
	}
}

// TestSimScaleLabelRoundTrip pins the procs-axis scaling label (PR 6):
// the deep P ∈ {256, 1024} battery rows must land in the trajectory as
// distinct rows — (workload, model, scale) is the collision-free key —
// and the label must survive a write/load round trip through the
// trajectory file, including past a merge that replaces the snapshot.
func TestSimScaleLabelRoundTrip(t *testing.T) {
	if got, want := simScaleLabel(32), "P32"; got != want {
		t.Fatalf("simScaleLabel(32) = %q, want %q", got, want)
	}
	row := func(workload, model string, procs int) simBenchResult {
		return simBenchResult{
			Workload: workload, Model: model, Procs: procs,
			Scale: simScaleLabel(procs), SimOpsPerSec: float64(procs),
		}
	}
	snap := simBenchSnapshot{
		Date:  "2026-08-08",
		Label: "scaling sweep",
		Results: []simBenchResult{
			row("lock/tas", "cluster", 32),
			row("lock/tas", "cluster", 256),
			row("lock/tas-nowin", "cluster", 256),
			row("lock/tas", "cluster", 1024),
			row("lock/tas", "numa", 256),
		},
	}
	// The deep points share (workload, model) with the canonical rows;
	// the scale label is what keeps the row keys distinct.
	keys := map[string]bool{}
	for _, r := range snap.Results {
		k := r.Workload + "@" + r.Model + "/" + r.Scale
		if keys[k] {
			t.Fatalf("duplicate row key %q: scale label does not disambiguate", k)
		}
		keys[k] = true
	}

	var f simBenchFile
	f, err := mergeSimSnapshot(f, snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Experiment = "round trip"
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadSimBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != 1 {
		t.Fatalf("round trip changed snapshot count: %d", len(got.Snapshots))
	}
	if !reflect.DeepEqual(got.Snapshots[0], snap) {
		t.Fatalf("snapshot changed across the round trip:\n  wrote %+v\n  read  %+v", snap, got.Snapshots[0])
	}
	for _, r := range got.Snapshots[0].Results {
		if r.Scale != simScaleLabel(r.Procs) {
			t.Errorf("row %s@%s: scale %q does not match procs %d", r.Workload, r.Model, r.Scale, r.Procs)
		}
	}
}

// committedSimBench is the trajectory file kept at the repository root.
const committedSimBench = "../../BENCH_sim.json"

// noinlineRows returns the "-noinline" twin rows of snap. The battery
// measured them only while inline continuation dispatch existed, so
// only historical snapshots carry them.
func noinlineRows(snap simBenchSnapshot) []simBenchResult {
	var rows []simBenchResult
	for _, r := range snap.Results {
		if strings.HasSuffix(r.Workload, "-noinline") {
			rows = append(rows, r)
		}
	}
	return rows
}

// dispatchSnapshot finds the committed trajectory's snapshot of the
// inline continuation dispatch milestone, the one that measured the
// "-noinline" twins.
func dispatchSnapshot(t *testing.T, f simBenchFile) simBenchSnapshot {
	t.Helper()
	for _, s := range f.Snapshots {
		if strings.HasSuffix(s.Label, ": inline continuation dispatch") {
			return s
		}
	}
	t.Fatalf("committed trajectory has no inline continuation dispatch snapshot (%d snapshots)", len(f.Snapshots))
	return simBenchSnapshot{}
}

// TestLoadSimBenchReadsCommittedTrajectory pins that the committed
// trajectory stays readable under the strict loader, historical twin
// rows included: the dispatch milestone's lock/tas-noinline rows (bus
// P32, cluster P32, cluster P256) load as ordinary rows.
func TestLoadSimBenchReadsCommittedTrajectory(t *testing.T) {
	f, err := loadSimBench(committedSimBench)
	if err != nil {
		t.Fatal(err)
	}
	rows := noinlineRows(dispatchSnapshot(t, f))
	want := []string{"lock/tas-noinline@bus/P32", "lock/tas-noinline@cluster/P32", "lock/tas-noinline@cluster/P256"}
	var got []string
	for _, r := range rows {
		if r.SimOpsPerSec <= 0 {
			t.Errorf("%s@%s/%s: no throughput recorded", r.Workload, r.Model, r.Scale)
		}
		got = append(got, r.Workload+"@"+r.Model+"/"+r.Scale)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("noinline rows = %v, want %v", got, want)
	}
}

// TestSimInlineTwinLabelRoundTrip pins that merging a new snapshot
// into the committed trajectory keeps its history: the continuation
// dispatch twins ("-noinline" rows, measured before that path was
// deleted) survive the merge and the write/load round trip unchanged,
// next to a new snapshot that has no such rows.
func TestSimInlineTwinLabelRoundTrip(t *testing.T) {
	f, err := loadSimBench(committedSimBench)
	if err != nil {
		t.Fatal(err)
	}
	before := dispatchSnapshot(t, f)
	n := len(f.Snapshots)

	snap := simBenchSnapshot{
		Date:  "2099-01-01",
		Label: "one dispatch path",
		Results: []simBenchResult{
			{Workload: "lock/tas", Model: "cluster", Procs: 32, Scale: simScaleLabel(32), SimOpsPerSec: 19e6},
			{Workload: "lock/tas-nowin", Model: "cluster", Procs: 32, Scale: simScaleLabel(32), SimOpsPerSec: 6e6},
		},
	}
	if f, err = mergeSimSnapshot(f, snap); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	got, err := loadSimBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != n+1 {
		t.Fatalf("merge should append one snapshot to %d, got %d", n, len(got.Snapshots))
	}
	if after := dispatchSnapshot(t, got); !reflect.DeepEqual(after, before) {
		t.Fatalf("dispatch snapshot changed across the merge:\n  before %+v\n  after  %+v", before, after)
	}
	if len(noinlineRows(before)) == 0 {
		t.Fatal("dispatch snapshot has no noinline rows")
	}
	if last := got.Snapshots[n]; !reflect.DeepEqual(last, snap) {
		t.Fatalf("new snapshot changed across the round trip:\n  wrote %+v\n  read  %+v", snap, last)
	}
}

// TestMergeSimSnapshotRefusesDuplicateLabel pins the duplicate guard:
// the same (date, label) in a different quick/full mode must be
// refused, not appended as a silent second point, and the trajectory
// must be left untouched.
func TestMergeSimSnapshotRefusesDuplicateLabel(t *testing.T) {
	full := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 4}}}
	var f simBenchFile
	f, err := mergeSimSnapshot(f, full)
	if err != nil {
		t.Fatal(err)
	}
	quick := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Quick: true}
	g, err := mergeSimSnapshot(f, quick)
	if err == nil {
		t.Fatal("quick snapshot under an existing full (date, label) should be refused")
	}
	if len(g.Snapshots) != 1 || g.Snapshots[0].Results[0].SimOpsPerSec != 4 {
		t.Fatalf("refused merge must not modify the trajectory: %+v", g.Snapshots)
	}
	// The unlabeled default is held to the same rule.
	f, err = mergeSimSnapshot(f, simBenchSnapshot{Date: "2026-07-03"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = mergeSimSnapshot(f, simBenchSnapshot{Date: "2026-07-03", Quick: true}); err == nil {
		t.Fatal("unlabeled duplicate in a different mode should be refused")
	}
}
