package main

import (
	"reflect"

	"repro/internal/machine"
)

// The accelerator switches and the host-side path counters are planned
// for deletion, so the benchmark never names them in Go syntax: it
// reaches them by field name here, and a field that no longer exists
// reports its metric as absent instead of breaking the build.

const (
	flagNoWindows  = "NoSpinWindows"    // machine.Config: spin windows off
	flagNoDispatch = "NoInlineDispatch" // machine.Config: inline continuation dispatch off
)

// hostCounters are the machine.Stats fields that count which host-side
// path retired an operation. They have no effect on simulated results
// and may differ between an accelerator and its reference twin, so the
// digest leaves them out.
var hostCounters = []string{"InlineOps", "WindowOps", "InlineDispatches"}

// hasFlag reports whether machine.Config still has the named switch.
func hasFlag(name string) bool {
	f, ok := reflect.TypeOf(machine.Config{}).FieldByName(name)
	return ok && f.Type.Kind() == reflect.Bool
}

// withFlag returns cfg with the named switch set, and whether it exists.
func withFlag(cfg machine.Config, name string) (machine.Config, bool) {
	f := reflect.ValueOf(&cfg).Elem().FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.Bool {
		return cfg, false
	}
	f.SetBool(true)
	return cfg, true
}

// counter reads the named host-side counter from st.
func counter(st machine.Stats, name string) (uint64, bool) {
	f := reflect.ValueOf(st).FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.Uint64 {
		return 0, false
	}
	return f.Uint(), true
}
