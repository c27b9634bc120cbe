package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{30, 10, 20, 10, 5} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{5, 10, 10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineClockMonotonic(t *testing.T) {
	e := NewEngine()
	last := Time(-1)
	// Events scheduled "in the past" from inside an event must clamp.
	e.At(50, func() {
		e.At(10, func() { // in the past relative to now=50
			if e.Now() < 50 {
				t.Errorf("clock ran backward: %d", e.Now())
			}
		})
	})
	e.At(5, func() {})
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("clock went backward: %d after %d", e.Now(), last)
		}
		last = e.Now()
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(25, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 125 {
		t.Fatalf("After fired at %d, want 125", at)
	}
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() {
		e.After(-5, func() {
			fired = true
			if e.Now() != 10 {
				t.Errorf("negative After fired at %d, want 10", e.Now())
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("negative After never fired")
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine()
	e.SetMaxSteps(100)
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.At(0, reschedule)
	err := e.Run()
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("Run error = %v, want ErrStepLimit", err)
	}
}

func TestEngineSetMaxStepsZeroRestoresDefault(t *testing.T) {
	e := NewEngine()
	e.SetMaxSteps(0)
	if e.maxSteps != DefaultMaxSteps {
		t.Fatalf("maxSteps = %d, want default", e.maxSteps)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.At(d, func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("RunUntil(12) fired %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock after RunUntil = %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Engine ops decoded by FuzzEngineOrder: each op is one byte (its value
// mod fzOps) followed by the operand bytes it consumes.
const (
	fzAtEvent = iota // delta: typed event at now+delta (delta >= 250: in the past, clamped)
	fzAt             // delta: closure event at now+delta
	fzStep           // StepPayload
	fzPeek           // NextTime and NextPeek
	fzRetime         // k, then (index, delta) per retime, then extra pops
	fzPurge          // mod, rem: purge typed events with id%mod == rem
	fzBurst          // n: n typed events, enough to cross linearMax
	fzReset          // Reset: back to linear mode
	fzOps
)

// fzMaxPending caps the queue FuzzEngineOrder builds (pushes past it
// are skipped), keeping every input fast while staying far above
// linearMax.
const fzMaxPending = 256

// fzEntry is one pending event of FuzzEngineOrder's reference model.
type fzEntry struct {
	when Time
	seq  uint64
	id   int32
	fn   bool
}

// engineOrderSeeds returns the seed corpus of FuzzEngineOrder: the
// closure-delay schedules of the original order property (random
// uint8 delays, drained in full), plus schedules that cross the
// linear/heap threshold with pops, retimes, purges and resets in both
// layouts.
func engineOrderSeeds() [][]byte {
	var seeds [][]byte
	r := NewRNG(150)
	for k := 0; k < 200; k++ {
		var in []byte
		for n := r.Intn(51); n > 0; n-- {
			in = append(in, fzAt, byte(r.Intn(256)))
		}
		seeds = append(seeds, in)
	}
	seeds = append(seeds,
		// Linear mode: retime the minimum (t=10) past the others, then
		// peek and pop: the cached minimum must move to t=20.
		[]byte{fzAtEvent, 10, fzAtEvent, 20, fzAt, 30, fzRetime, 0, 0, 50, 0, fzPeek, fzStep, fzStep, fzStep},
		// Heap mode: retime three entries, purge every other typed
		// event, drain; then Reset to linear mode and cross again.
		[]byte{fzBurst, 20, fzRetime, 2, 0, 200, 1, 150, 2, 100, 1, fzStep, fzStep, fzPurge, 1, 1, fzPeek,
			fzAt, 7, fzAtEvent, 251, fzStep, fzReset, fzAtEvent, 4, fzBurst, 16, fzAtEvent, 2, fzStep},
		// A purge in heap mode leaves a subsequence of the heap array,
		// which must be re-heapified before the drain.
		[]byte{fzBurst, 30, fzPurge, 1, 1},
		// A purge that empties the heap, then pushes into it.
		[]byte{fzBurst, 31, fzPurge, 0, 0, fzPeek, fzAtEvent, 1, fzAt, 1, fzStep},
	)
	return seeds
}

// FuzzEngineOrder decodes its input into a schedule of AtEvent/At,
// StepPayload, NextTime/NextPeek, RetimePending+FinishWindow,
// PurgePending and Reset calls, and replays it against a sorted-slice
// reference: every pop must come out in (when, seq) order with the
// payload it was scheduled with, and the queue size, sequence and step
// counters must track the reference after every call — in the linear
// layout, in the heap, and across the switch between them.
func FuzzEngineOrder(f *testing.F) {
	for _, s := range engineOrderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 4096 {
			return
		}
		e := NewEngine()
		var (
			ref   []fzEntry
			now   Time
			seq   uint64
			steps uint64
			id    int32
			fired int32 = -1 // id recorded by the last closure that ran
			heap  bool       // the queue has passed linearMax since the last Reset
		)
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		less := func(a, b fzEntry) bool {
			return a.when < b.when || (a.when == b.when && a.seq < b.seq)
		}
		// ref stays sorted by (when, seq): pushes insert in place, a
		// retime batch re-sorts.
		insert := func(ev fzEntry) {
			i := sort.Search(len(ref), func(i int) bool { return less(ev, ref[i]) })
			ref = append(ref, fzEntry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = ev
		}
		push := func(delta byte, closure bool) {
			if len(ref) >= fzMaxPending {
				return
			}
			when := now + Time(delta)
			if delta >= 250 {
				when = now - Time(delta-249) // in the past: clamped to now
			}
			id++
			seq++
			ev := fzEntry{when: max(when, now), seq: seq, id: id, fn: closure}
			if closure {
				me := id
				e.At(when, func() { fired = me })
			} else {
				e.AtEvent(when, EvDispatch+EventKind(id%2), id, 0)
			}
			insert(ev)
		}
		pop := func() {
			kind, arg0, _, ok := e.StepPayload()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("pop from an empty queue fired kind %d arg0 %d", kind, arg0)
				}
				return
			}
			want := ref[0]
			ref = ref[1:]
			now = want.when
			steps++
			switch {
			case !ok:
				t.Fatalf("pop fired nothing, want %+v", want)
			case want.fn && (kind != EvFunc || fired != want.id):
				t.Fatalf("pop ran kind %d closure %d, want closure %+v", kind, fired, want)
			case !want.fn && (kind != EvDispatch+EventKind(want.id%2) || arg0 != want.id):
				t.Fatalf("pop fired kind %d arg0 %d, want %+v", kind, arg0, want)
			case e.Now() != want.when:
				t.Fatalf("clock %d after pop, want %d", e.Now(), want.when)
			}
		}
		for len(in) > 0 {
			switch next() % fzOps {
			case fzAtEvent:
				push(next(), false)
			case fzAt:
				push(next(), true)
			case fzStep:
				pop()
			case fzPeek:
				when, ok := e.NextTime()
				kind, arg0, _, pok := e.NextPeek()
				if ok != (len(ref) > 0) || pok != ok {
					t.Fatalf("NextTime ok=%v, NextPeek ok=%v with %d pending", ok, pok, len(ref))
				}
				if ok {
					w := ref[0]
					if when != w.when || (!w.fn && arg0 != w.id) || (w.fn && kind != EvFunc) {
						t.Fatalf("peek (%d, kind %d, arg0 %d), want %+v", when, kind, arg0, w)
					}
				}
			case fzRetime:
				// A window commit: retime up to four distinct entries to
				// fresh sequence numbers in (Seq(), Seq()+pops].
				k := int(next()%4) + 1
				seq0 := e.Seq()
				seen := map[uint64]bool{}
				n := 0
				for j := 0; j < k; j++ {
					i, delta := int(next()), Time(next())
					if e.Pending() == 0 {
						continue
					}
					i %= e.Pending()
					pe := e.PendingAt(i)
					if seen[pe.Seq] {
						continue
					}
					n++
					e.RetimePending(i, now+delta, seq0+uint64(n))
					seen[seq0+uint64(n)] = true
					for r := range ref {
						if ref[r].seq == pe.Seq {
							ref[r].when, ref[r].seq = now+delta, seq0+uint64(n)
						}
					}
				}
				sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
				pops := uint64(n) + uint64(next()%3)
				e.FinishWindow(pops)
				seq += pops
				steps += pops
			case fzPurge:
				mod := int32(next()%4) + 1
				rem := int32(next()) % mod
				got := e.PurgePending(func(pe PendingEvent) bool { return pe.Arg0%mod == rem })
				kept := ref[:0]
				for _, r := range ref {
					if !r.fn && r.id%mod == rem {
						continue
					}
					kept = append(kept, r)
				}
				if want := len(ref) - len(kept); got != want {
					t.Fatalf("purge removed %d events, want %d", got, want)
				}
				ref = kept
			case fzBurst:
				for n := int(next()%32) + 1; n > 0; n-- {
					push(byte((n*37)%97), false)
				}
			case fzReset:
				e.Reset()
				ref, now, seq, steps, heap = ref[:0], 0, 0, 0, false
			}
			if e.Pending() != len(ref) || e.Seq() != seq || e.Steps() != steps {
				t.Fatalf("engine pending=%d seq=%d steps=%d, reference %d/%d/%d",
					e.Pending(), e.Seq(), e.Steps(), len(ref), seq, steps)
			}
			// The heap is sticky: once the population passes linearMax
			// the queue stays a heap until Reset.
			heap = heap || len(ref) > linearMax
			if e.linear == heap {
				t.Fatalf("linear=%v with %d pending, heap expected=%v", e.linear, len(ref), heap)
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if _, _, _, ok := e.StepPayload(); ok {
			t.Fatal("engine fired an event the reference does not have")
		}
	})
}

func TestEngineTypedEventsInterleaveWithClosures(t *testing.T) {
	e := NewEngine()
	var got []string
	e.SetHandler(func(kind EventKind, arg0, arg1 int32) {
		if kind != EvDispatch {
			t.Fatalf("handler saw kind %d, want EvDispatch", kind)
		}
		got = append(got, fmt.Sprintf("d%d.%d", arg0, arg1))
	})
	e.AtEvent(20, EvDispatch, 2, 7)
	e.At(10, func() { got = append(got, "f10") })
	e.AtEvent(10, EvDispatch, 1, 0) // same instant as f10, scheduled later
	e.AfterEvent(5, EvDispatch, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"d0.0", "f10", "d1.0", "d2.7"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

func TestEngineStepPayload(t *testing.T) {
	e := NewEngine()
	ranFn := false
	e.At(5, func() { ranFn = true })
	e.AtEvent(10, EvDispatch, 3, 9)
	kind, _, _, fired := e.StepPayload()
	if !fired || kind != EvFunc || !ranFn {
		t.Fatalf("first StepPayload = (%d, fired=%v), ranFn=%v; want closure event run in place", kind, fired, ranFn)
	}
	kind, a0, a1, fired := e.StepPayload()
	if !fired || kind != EvDispatch || a0 != 3 || a1 != 9 {
		t.Fatalf("second StepPayload = (%d, %d, %d, %v), want (EvDispatch, 3, 9, true)", kind, a0, a1, fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
	if _, _, _, fired := e.StepPayload(); fired {
		t.Fatal("StepPayload on empty queue reported an event")
	}
}

func TestEngineNextTime(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	if _, ok := e.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	e.AtEvent(30, EvDispatch, 0, 0)
	e.AtEvent(12, EvDispatch, 1, 0)
	if next, ok := e.NextTime(); !ok || next != 12 {
		t.Fatalf("NextTime = (%d, %v), want (12, true)", next, ok)
	}
	e.Step()
	if next, ok := e.NextTime(); !ok || next != 30 {
		t.Fatalf("NextTime after Step = (%d, %v), want (30, true)", next, ok)
	}
}

func TestEngineChargeStepExhaustsBudget(t *testing.T) {
	e := NewEngine()
	e.SetMaxSteps(10)
	for i := 0; i < 9; i++ {
		if e.ChargeStep() {
			t.Fatalf("budget exhausted after %d charges, limit is 10", i+1)
		}
	}
	if !e.ChargeStep() {
		t.Fatal("10th charge should refuse: the budget boundary belongs to a real event")
	}
	// A refused charge falls back to a real event, which is the unit
	// that gets counted — exactly once. The op on the boundary itself
	// is still within budget; the one after it trips Exhausted, so a
	// program doing exactly maxSteps units of work never sees a
	// spurious ErrStepLimit.
	e.SetHandler(func(EventKind, int32, int32) {})
	e.AtEvent(1, EvDispatch, 0, 0)
	e.Step()
	if e.Exhausted() {
		t.Fatal("work == maxSteps is within budget")
	}
	if !e.ChargeStep() {
		t.Fatal("charge past the boundary should refuse")
	}
	e.AtEvent(2, EvDispatch, 0, 0)
	e.Step()
	if !e.Exhausted() {
		t.Fatal("Exhausted should report true past the budget")
	}
}

func TestEngineTypedEventWithoutHandlerPanics(t *testing.T) {
	e := NewEngine()
	e.AtEvent(1, EvDispatch, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("firing a typed event with no handler should panic")
		}
	}()
	e.Step()
}

// TestEngineHeapProperty drives a large random schedule through the
// 4-ary heap and checks the (time, seq) fire order — the heap-shape
// analog of TestEngineOrderProperty, at a size that exercises multi-level
// sifts in both directions.
func TestEngineHeapProperty(t *testing.T) {
	e := NewEngine()
	r := NewRNG(99)
	const n = 5000
	type rec struct {
		when Time
		seq  int
	}
	var got []rec
	e.SetHandler(func(_ EventKind, arg0, _ int32) {
		got = append(got, rec{e.Now(), int(arg0)})
	})
	for i := 0; i < n; i++ {
		e.AtEvent(Time(r.Intn(500)), EvDispatch, int32(i), 0)
	}
	// Interleave pops and pushes to exercise steady-state churn.
	for i := 0; i < n/2; i++ {
		e.Step()
		e.AtEvent(e.Now()+Time(r.Intn(200)), EvDispatch, int32(n+i), 0)
	}
	for e.Step() {
	}
	if len(got) != n+n/2 {
		t.Fatalf("fired %d events, want %d", len(got), n+n/2)
	}
	sorted := sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].when != got[j].when {
			return got[i].when < got[j].when
		}
		return got[i].seq < got[j].seq
	})
	if !sorted {
		t.Fatal("heap fired events out of (time, seq) order")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGDerive(t *testing.T) {
	base := NewRNG(7)
	d0 := base.Derive(0)
	d1 := base.Derive(1)
	if d0.Uint64() == d1.Uint64() {
		t.Fatal("derived streams 0 and 1 start identically")
	}
	// Deriving must not disturb the base stream.
	base2 := NewRNG(7)
	if base.Uint64() != base2.Uint64() {
		t.Fatal("Derive disturbed the base stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGExpTimeMean(t *testing.T) {
	r := NewRNG(11)
	const mean = 100
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.ExpTime(mean))
	}
	got := sum / n
	if math.Abs(got-mean) > mean*0.05 {
		t.Fatalf("ExpTime mean = %.1f, want ~%d", got, mean)
	}
}

func TestRNGExpTimeZeroMean(t *testing.T) {
	r := NewRNG(1)
	if r.ExpTime(0) != 0 || r.ExpTime(-5) != 0 {
		t.Fatal("ExpTime of non-positive mean should be 0")
	}
}

func TestRNGTimeRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Time(23)
		if v < 0 || v >= 23 {
			t.Fatalf("Time(23) = %d out of range", v)
		}
	}
}

// ---------------------------------------------------------------------
// Window-advance API (PendingAt / PopBudget / ApplyWindow)
// ---------------------------------------------------------------------

// TestPendingAtCoversQueue pins that the pending-event scan exposes
// every queued event exactly once with the payload it was scheduled
// with, in both queue layouts.
func TestPendingAtCoversQueue(t *testing.T) {
	for _, n := range []int{5, linearMax + 10} {
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.AtEvent(Time(100-i), EvSpin, int32(i), int32(2*i))
		}
		if e.Pending() != n {
			t.Fatalf("Pending = %d, want %d", e.Pending(), n)
		}
		seen := make(map[int32]PendingEvent, n)
		for i := 0; i < e.Pending(); i++ {
			ev := e.PendingAt(i)
			seen[ev.Arg0] = ev
		}
		if len(seen) != n {
			t.Fatalf("scan saw %d distinct events, want %d", len(seen), n)
		}
		for i := 0; i < n; i++ {
			ev := seen[int32(i)]
			if ev.When != Time(100-i) || ev.Kind != EvSpin || ev.Arg1 != int32(2*i) || ev.Seq != uint64(i+1) {
				t.Fatalf("event %d = %+v, want when=%d arg1=%d seq=%d", i, ev, 100-i, 2*i, i+1)
			}
		}
	}
}

// TestApplyWindowEquivalence drives the same schedule two ways — fully
// event by event, and with a middle run of pops replaced by
// ApplyWindow — and requires identical counters, identical remaining
// pop order, and identical sequence numbering for events scheduled
// afterwards.
func TestApplyWindowEquivalence(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.SetHandler(func(EventKind, int32, int32) {})
		// Three "spinners" at 10/20/30 plus a horizon event at 100.
		e.AtEvent(10, EvSpin, 0, 0)
		e.AtEvent(20, EvSpin, 1, 0)
		e.AtEvent(30, EvSpin, 2, 0)
		e.AtEvent(100, EvDispatch, 9, 0)
		return e
	}

	// Reference: pop the three spins, each rescheduling one successor
	// past the horizon (what a probe rotation leaves behind).
	ref := build()
	for i := 0; i < 3; i++ {
		kind, arg0, _, fired := ref.StepPayload()
		if !fired || kind != EvSpin {
			t.Fatalf("pop %d: kind=%v fired=%v", i, kind, fired)
		}
		ref.AtEvent(Time(110+10*int(arg0)), EvSpin, arg0, 0)
	}

	// Windowed: commit the same three pops in closed form.
	win := build()
	var retimes []Retime
	seq0 := win.Seq()
	for i := 0; i < win.Pending(); i++ {
		ev := win.PendingAt(i)
		if ev.Kind != EvSpin {
			continue
		}
		// Spinner arg0 was popped as pop arg0+1 and rescheduled at
		// 110+10*arg0 with the (arg0+1)-th elided sequence number.
		retimes = append(retimes, Retime{Index: i, When: Time(110 + 10*int(ev.Arg0)), Seq: seq0 + uint64(ev.Arg0) + 1})
	}
	win.ApplyWindow(3, retimes)

	if ref.Steps() != win.Steps() {
		t.Fatalf("steps diverge: ref %d, win %d", ref.Steps(), win.Steps())
	}
	if ref.Seq() != win.Seq() {
		t.Fatalf("seq diverge: ref %d, win %d", ref.Seq(), win.Seq())
	}
	if ref.PopBudget() != win.PopBudget() {
		t.Fatalf("pop budget diverge: ref %d, win %d", ref.PopBudget(), win.PopBudget())
	}
	// Both schedule one more event (must draw the same seq), then the
	// remaining queues must pop identically.
	ref.AtEvent(105, EvDispatch, 7, 0)
	win.AtEvent(105, EvDispatch, 7, 0)
	for {
		rk, ra, _, rf := ref.StepPayload()
		wk, wa, _, wf := win.StepPayload()
		if rk != wk || ra != wa || rf != wf || ref.Now() != win.Now() {
			t.Fatalf("pop diverged: ref (%v,%d,%v)@%d vs win (%v,%d,%v)@%d",
				rk, ra, rf, ref.Now(), wk, wa, wf, win.Now())
		}
		if !rf {
			break
		}
	}
}

// TestApplyWindowHeapMode re-times entries while the queue is in heap
// mode and checks the heap invariant is restored.
func TestApplyWindowHeapMode(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	n := linearMax + 16
	for i := 0; i < n; i++ {
		e.AtEvent(Time(10+i), EvSpin, int32(i), 0)
	}
	if e.linear {
		t.Fatal("queue should be in heap mode")
	}
	// Push the earliest 8 entries to the back of the schedule.
	var retimes []Retime
	for i := 0; i < e.Pending(); i++ {
		ev := e.PendingAt(i)
		if ev.When < Time(10+8) {
			retimes = append(retimes, Retime{Index: i, When: ev.When + Time(1000), Seq: e.Seq() + uint64(ev.Arg0) + 1})
		}
	}
	e.ApplyWindow(8, retimes)
	// The retimed entries must drain in exactly the recomputed order:
	// the untouched events 8..n-1 at their original times, then the
	// retimed 0..7 at original+1000 (their new seqs preserve arrival
	// order within the group).
	var got []int32
	for e.Pending() > 0 {
		_, arg0, _, fired := e.StepPayload()
		if !fired {
			break
		}
		got = append(got, arg0)
	}
	var want []int32
	for i := 8; i < n; i++ {
		want = append(want, int32(i))
	}
	for i := 0; i < 8; i++ {
		want = append(want, int32(i))
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap-mode drain order diverged at %d: got %v, want %v", i, got[:i+1], want[:i+1])
		}
	}
}

// TestPopBudgetMatchesExhaustion pins PopBudget against the actual
// trip point of the step limit.
func TestPopBudgetMatchesExhaustion(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	e.SetMaxSteps(5)
	for i := 0; i < 10; i++ {
		e.AtEvent(Time(i), EvSpin, 0, 0)
	}
	for !e.Exhausted() {
		if e.PopBudget() == 0 {
			// Budget zero: the very next pop must trip.
			e.Step()
			if !e.Exhausted() {
				t.Fatal("pop after zero budget did not exhaust the engine")
			}
			return
		}
		e.Step()
	}
	t.Fatal("engine exhausted while budget was still positive")
}
