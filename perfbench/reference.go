package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/machine"
)

// reference.json holds the digest of every cell of every simulator
// workload, recorded at commit 42e19c9 for a range of workload
// seeds (regenerate with -record; see NOTES.md). A later build must
// reproduce them bit for bit.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Note      string                       `json:"note"`
	Workloads map[string]referenceWorkload `json:"workloads"`
}

type referenceWorkload struct {
	Cells []string            `json:"cells"`
	Seeds map[string][]string `json:"seeds"`
}

// referenceFor returns the recorded digests of cells for seed, or nil
// when none were recorded for that seed.
func referenceFor(workload string, seed uint64, cells []cell) ([]string, error) {
	var rf referenceFile
	if err := json.Unmarshal(referenceJSON, &rf); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	w, ok := rf.Workloads[workload]
	if !ok {
		return nil, nil
	}
	ref, ok := w.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, nil
	}
	if len(w.Cells) != len(cells) || len(ref) != len(cells) {
		return nil, fmt.Errorf("reference.json: %s has %d cells, the workload %d", workload, len(w.Cells), len(cells))
	}
	for i, c := range cells {
		if w.Cells[i] != c.id {
			return nil, fmt.Errorf("reference.json: %s cell %d is %s, the workload's is %s", workload, i, w.Cells[i], c.id)
		}
	}
	return ref, nil
}

// referenceSeeds is how many seeds, from 0, reference.json covers.
const referenceSeeds = 20

// record runs one default-path pass of every simulator workload for
// each reference seed and writes the digests to path.
func record(path string) error {
	rf := referenceFile{
		Note:      "per-cell digests (digest.go) of every simulator workload, default path, recorded with perfbench -record",
		Workloads: map[string]referenceWorkload{},
	}
	for _, name := range []string{"locks-polling", "storms", "recovery"} {
		w := simWorkloads[name]
		rw := referenceWorkload{Seeds: map[string][]string{}}
		for seed := uint64(0); seed < referenceSeeds; seed++ {
			cells := w.build(seed, nil)
			if rw.Cells == nil {
				for _, c := range cells {
					rw.Cells = append(rw.Cells, c.id)
				}
			}
			r := newRunner(cells, new(machine.Pool), nil)
			var ds []string
			for i := range cells {
				e := r.exec(i, cells[i].cfg, nil, "")
				if e.err != nil {
					return fmt.Errorf("record %s seed %d %s: %w", name, seed, cells[i].id, e.err)
				}
				ds = append(ds, e.digest)
			}
			rw.Seeds[strconv.FormatUint(seed, 10)] = ds
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", name, seed)
		}
		rf.Workloads[name] = rw
	}
	data, err := json.Marshal(rf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
