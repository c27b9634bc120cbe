package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Tests for the engine-level poll waits (PollUntil, PollHead) and the
// acquires that run inside the engine (PollUntil with a Claim,
// SpinTASSliced). The contract under test is exactness: each wait must
// be probe-for-probe the explicit goroutine loop it replaces, so a
// program written either way returns the same values at the same clocks
// and leaves the same Stats — only the host-side counters (InlineOps,
// WindowOps) may differ.

// refPoll is the goroutine loop PollUntil replaces.
func refPoll(p *Proc, a Addr, w Poll) (Word, bool) {
	for {
		v := p.Load(a)
		if w.Expiry != 0 {
			if v == 0 || sim.Time(v&w.Expiry) <= p.Now() {
				return v, true
			}
		} else if w.Until.Holds(v) {
			return v, true
		}
		if w.Deadline > 0 && p.Now() >= w.Deadline {
			return v, false
		}
		p.Delay(w.Every + sim.Time(w.Until.Want-v)*w.PropK)
	}
}

// refHead is the goroutine loop PollHead replaces; tr carries the head
// tracking across calls as HeadPoll does.
func refHead(p *Proc, h HeadPoll, tr *headTrack) (Word, bool) {
	for {
		s := p.Load(h.Serving)
		if s >= h.Ticket {
			return s, true
		}
		if !tr.tracking || s != tr.seen {
			*tr = headTrack{seen: s, since: p.Now(), tracking: true}
		}
		slot := p.Load(h.Slots + Addr(int(s)%h.Ring))
		if slot>>h.OwnerBits == s {
			owner := int(slot&(Word(1)<<h.OwnerBits-1)) - 1
			if owner >= 0 && owner != p.ID() && p.Suspects(owner) {
				return s, false
			}
		}
		if p.Now()-tr.since >= h.Grace {
			return s, false
		}
		p.Delay(h.Every)
	}
}

// refClaim is the goroutine loop a claiming PollUntil replaces: poll
// until the judge holds, race for the word with a compare&swap stamped
// at the judge clock, and reload at once on a lost race. It counts the
// lost races in *lost.
func refClaim(p *Proc, a Addr, w Poll, lost *int) Word {
	plain := w
	plain.Claim, plain.Term = 0, 0
	for {
		v, _ := p.PollUntil(a, plain)
		if p.CompareAndSwap(a, v, w.Claim|Word(p.Now()+w.Term)&w.Expiry) {
			return v
		}
		*lost++
	}
}

// refSliced is the goroutine loop SpinTASSliced replaces. It counts in
// *stalled the penalty delays that a stall stretched past penalty.
func refSliced(p *Proc, a Addr, bo Backoff, slice, penalty sim.Time, timeouts *uint64, stalled *int) {
	for !p.SpinTASFor(a, bo, p.Now()+slice) {
		*timeouts++
		start := p.Now()
		p.Delay(penalty)
		if p.Now() > start+penalty {
			*stalled++
		}
	}
}

// waiter runs one poll shape either through the engine or through the
// reference loop. The reference side also counts what only it can see:
// lost claim races and stalled penalty delays.
type waiter struct {
	engine  bool
	lost    int
	stalled int
}

func (w *waiter) poll(p *Proc, a Addr, pw Poll) (Word, bool) {
	if w.engine {
		return p.PollUntil(a, pw)
	}
	return refPoll(p, a, pw)
}

func (w *waiter) head(p *Proc, h *HeadPoll) (Word, bool) {
	if w.engine {
		return p.PollHead(h)
	}
	return refHead(p, *h, &h.head)
}

func (w *waiter) claim(p *Proc, a Addr, pw Poll) Word {
	if w.engine {
		v, _ := p.PollUntil(a, pw)
		return v
	}
	return refClaim(p, a, pw, &w.lost)
}

func (w *waiter) sliced(p *Proc, a Addr, bo Backoff, slice, penalty sim.Time, timeouts *uint64) {
	if w.engine {
		p.SpinTASSliced(a, bo, slice, penalty, timeouts)
		return
	}
	refSliced(p, a, bo, slice, penalty, timeouts, &w.stalled)
}

// pollShape is one workload exercising a poll shape; it logs what the
// program observed, per processor, and counts the exits that make the
// shape interesting.
type pollShape struct {
	name string
	run  func(m *Machine, w *waiter, log [][]Word, ex *exits) error
}

// exits counts a shape's early exits: deadline give-ups, lease
// takeovers, and head excisions (of which suspect counts those taken
// before the grace period ran out, on the failure detector's word).
type exits struct{ early, suspect int }

// phaseShape: processor 0 raises a phase word every few dozen cycles;
// every other processor polls for each phase in turn with the given
// poll schedule. A reborn processor restarts from the first phase (the
// waits are then satisfied at once) and the driver resumes from the
// phase it reads, so the workload survives crashes.
func phaseShape(name string, rounds int, sched Poll) pollShape {
	return pollShape{name: name, run: func(m *Machine, w *waiter, log [][]Word, ex *exits) error {
		phase := m.AllocShared(1)
		return m.Run(func(p *Proc) {
			rng := p.RNG()
			if p.ID() == 0 {
				for {
					v := p.Load(phase)
					if v >= Word(rounds) {
						return
					}
					p.Delay(30 + rng.Time(40))
					p.Store(phase, v+1)
				}
			}
			for r := 1; r <= rounds; r++ {
				pw := sched
				pw.Until = Pred{Op: PredGe, Want: Word(r)}
				for {
					if sched.Deadline > 0 {
						pw.Deadline = p.Now() + sched.Deadline
					}
					v, ok := w.poll(p, phase, pw)
					log[p.ID()] = append(log[p.ID()], v, Word(p.Now()))
					if ok {
						break
					}
					ex.early++
				}
				p.Delay(rng.Time(20))
			}
		})
	}}
}

// leaseShape: a lease lock (owner<<48 | expiry) whose critical sections
// sometimes outlast the term, so waiters take expired leases over.
func leaseShape() pollShape {
	const bits = 48
	mask := Word(1)<<bits - 1
	return pollShape{name: "lease", run: func(m *Machine, w *waiter, log [][]Word, ex *exits) error {
		word := m.AllocShared(1)
		return m.Run(func(p *Proc) {
			rng := p.RNG()
			me := Word(p.ID()+1) << bits
			for it := 0; it < 6; it++ {
				p.Delay(rng.Time(60))
				for {
					v, _ := w.poll(p, word, Poll{Expiry: mask, Every: 9})
					log[p.ID()] = append(log[p.ID()], v, Word(p.Now()))
					if p.CompareAndSwap(word, v, me|Word(p.Now()+150)) {
						if v != 0 {
							ex.early++
						}
						break
					}
				}
				p.Delay(40 + rng.Time(160))
				if v := p.Load(word); v&^mask == me {
					p.CompareAndSwap(word, v, 0)
				}
			}
		})
	}}
}

// claimShape: the lease lock of leaseShape acquired with a claiming
// poll. Critical sections sometimes outlast the term, so expired leases
// are taken over, and a short poll spacing makes waiters that saw the
// same release race for it. Right after each acquire a plain PollUntil
// on the held word returns at once without touching it; a claim state
// leaking into it would issue a compare&swap. The last processor only watches
// the word with a read spin, so each won claim must wake it as a
// goroutine-issued compare&swap would.
func claimShape() pollShape {
	const bits = 48
	mask := Word(1)<<bits - 1
	return pollShape{name: "claim", run: func(m *Machine, w *waiter, log [][]Word, ex *exits) error {
		word := m.AllocShared(1)
		return m.Run(func(p *Proc) {
			if p.ID() == m.Procs()-1 {
				v := Word(0)
				for n := 0; n < 20; n++ {
					v = p.SpinWhileEq(word, v)
					log[p.ID()] = append(log[p.ID()], v, Word(p.Now()))
				}
				return
			}
			rng := p.RNG()
			me := Word(p.ID()+1) << bits
			for it := 0; it < 6; it++ {
				p.Delay(rng.Time(60))
				v := w.claim(p, word, Poll{Expiry: mask, Every: 3, Claim: me, Term: 150})
				log[p.ID()] = append(log[p.ID()], v, Word(p.Now()))
				if v != 0 {
					ex.early++
				}
				v, _ = p.PollUntil(word, Poll{Until: Pred{Op: PredNe, Want: 0}, Every: 5})
				log[p.ID()] = append(log[p.ID()], v, Word(p.Now()))
				p.Delay(40 + rng.Time(160))
				if v := p.Load(word); v&^mask == me {
					p.CompareAndSwap(word, v, 0)
				}
			}
		})
	}}
}

// slicedShape: a test&set latch acquired in bounded slices with a
// growing backoff, so each re-arm must reset the schedule. Holds are
// long enough that slices expire, and on the faulted machine the stall
// lands inside penalty delays. A processor reborn holding the latch
// releases it on recovery. Right after each acquire a plain SpinTASFor
// on the held latch gives up at its deadline; a slice state leaking into
// it would count a timeout and spin on.
func slicedShape() pollShape {
	return pollShape{name: "sliced", run: func(m *Machine, w *waiter, log [][]Word, ex *exits) error {
		latch := m.AllocShared(1)
		bo := Backoff{Base: 4, Cap: 32}
		holder := -1
		var timeouts uint64
		err := m.Run(func(p *Proc) {
			if holder == p.ID() {
				holder = -1
				p.Store(latch, 0)
			}
			rng := p.RNG()
			for it := 0; it < 5; it++ {
				p.Delay(rng.Time(80))
				w.sliced(p, latch, bo, 40, 60, &timeouts)
				holder = p.ID()
				log[p.ID()] = append(log[p.ID()], Word(p.Now()))
				won := p.SpinTASFor(latch, bo, p.Now()+25)
				log[p.ID()] = append(log[p.ID()], Word(p.Now()))
				if won {
					log[p.ID()] = append(log[p.ID()], 1)
				}
				p.Delay(30 + rng.Time(150))
				holder = -1
				p.Store(latch, 0)
			}
		})
		ex.early += int(timeouts)
		return err
	}}
}

// headShape: the self-healing ticket queue. Tickets start at 1, slots
// announce ticket<<8 | owner+1, and a short grace period plus the
// failure detector make both early exits fire.
func headShape() pollShape {
	return pollShape{name: "head", run: func(m *Machine, w *waiter, log [][]Word, ex *exits) error {
		next, serving := m.AllocShared(1), m.AllocShared(1)
		slots := m.AllocShared(m.Procs())
		m.Poke(next, 1)
		m.Poke(serving, 1)
		return m.Run(func(p *Proc) {
			rng := p.RNG()
			for it := 0; it < 5; it++ {
				p.Delay(rng.Time(50))
				var t Word
				for {
					t = p.FetchAdd(next, 1)
					p.Store(slots+Addr(int(t)%m.Procs()), t<<8|Word(p.ID()+1))
					h := HeadPoll{Serving: serving, Slots: slots, Ring: m.Procs(), OwnerBits: 8,
						Ticket: t, Grace: 400, Every: 11}
					s, reached := w.head(p, &h)
					for !reached {
						log[p.ID()] = append(log[p.ID()], s, Word(p.Now()))
						ex.early++
						if p.Now()-h.head.since < h.Grace {
							ex.suspect++
						}
						p.CompareAndSwap(serving, s, s+1)
						s, reached = w.head(p, &h)
					}
					log[p.ID()] = append(log[p.ID()], s, Word(p.Now()))
					if s == t {
						break
					}
				}
				p.Delay(20 + rng.Time(450))
				p.CompareAndSwap(serving, t, t+1)
			}
		})
	}}
}

func pollShapes() []pollShape {
	return []pollShape{
		phaseShape("fixed", 12, Poll{Every: 13}),
		phaseShape("proportional", 12, Poll{PropK: 7}),
		phaseShape("fixed+proportional", 12, Poll{Every: 3, PropK: 5}),
		phaseShape("deadline", 8, Poll{Every: 17, Deadline: 45}),
		leaseShape(),
		claimShape(),
		slicedShape(),
		headShape(),
	}
}

type pollResult struct {
	Stats Stats
	Log   [][]Word
	Exits exits
	Err   string
}

// runPollShape runs sh on a fresh machine and returns what it observed,
// with the host-side counters scrubbed from Stats, and the waiter (whose
// reference-only counts are not part of the comparison).
func runPollShape(t *testing.T, cfg Config, sh pollShape, engine bool) (pollResult, *waiter) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := pollResult{Log: make([][]Word, m.Procs())}
	w := &waiter{engine: engine}
	if err := sh.run(m, w, res.Log, &res.Exits); err != nil {
		res.Err = err.Error()
	}
	res.Stats = m.Stats()
	res.Stats.InlineOps, res.Stats.WindowOps = 0, 0
	return res, w
}

// TestPollWaitsMatchGoroutineLoops runs every poll shape through the
// engine and through the explicit goroutine loop on twin machines, on
// each canonical topology, fault-free and under a plan with a stall and
// a crash+restart, and requires identical observations, exit counts and
// Stats (PerProc included).
func TestPollWaitsMatchGoroutineLoops(t *testing.T) {
	plan := fault.NewPlan("poll").
		WithStall(1, 200, 700).
		WithStall(4, 350, 600).
		WithStall(5, 1100, 1300).
		WithCrash(2, 900).
		WithRestart(2, 1500)
	topos := []topo.Topology{topo.Bus, topo.NUMA, topo.Cluster}
	for _, sh := range pollShapes() {
		var ex exits
		var lost, stalled int
		for _, tp := range topos {
			for _, faulted := range []bool{false, true} {
				cfg := Config{Procs: 8, Topo: tp, Seed: 7}
				if faulted {
					cfg.Faults = plan
					cfg.SuspectAfter = 150
				}
				name := fmt.Sprintf("%s/%s/faults=%v", sh.name, tp.Name(), faulted)
				ref, rw := runPollShape(t, cfg, sh, false)
				eng, _ := runPollShape(t, cfg, sh, true)
				lost += rw.lost
				if faulted {
					stalled += rw.stalled
				}
				if ref.Err != "" {
					t.Errorf("%s: reference run failed: %s", name, ref.Err)
				}
				if !reflect.DeepEqual(ref, eng) {
					t.Errorf("%s: engine poll diverged from the goroutine loop:\n  ref: %+v\n  eng: %+v", name, ref, eng)
				}
				ex.early += eng.Exits.early
				ex.suspect += eng.Exits.suspect
			}
		}
		// Every shape but the plain waits must actually take its
		// early exits somewhere, or the comparison proves nothing.
		switch sh.name {
		case "deadline", "lease", "claim", "sliced", "head":
			if ex.early == 0 {
				t.Errorf("%s: no deadline, takeover, timeout or excision exit fired", sh.name)
			}
		}
		if sh.name == "claim" && lost == 0 {
			t.Error("claim: no claim race was lost; the herd path went untested")
		}
		if sh.name == "sliced" && stalled == 0 {
			t.Error("sliced: no stall landed inside a penalty delay")
		}
		if sh.name == "head" && (ex.suspect == 0 || ex.suspect == ex.early) {
			t.Errorf("head: want both suspect and grace exits, got %d of %d on suspicion", ex.suspect, ex.early)
		}
	}
}

// TestPollWaitAllocs: entering a poll wait, a claiming poll or a sliced
// test&set wait — including one that parks and is advanced by the
// engine through other processors' events — allocates nothing.
func TestPollWaitAllocs(t *testing.T) {
	m, err := New(Config{Procs: 2, Topo: topo.NUMA, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	word, serving, slots := m.AllocShared(1), m.AllocShared(1), m.AllocShared(2)
	lease, latch := m.AllocShared(1), m.AllocShared(1)
	stop := m.AllocShared(1)
	var pollAllocs, headAllocs, claimAllocs, slicedAllocs float64
	var timeouts uint64
	err = m.RunEach([]func(*Proc){
		func(p *Proc) {
			pw := Poll{Until: Pred{Op: PredEq, Want: 1}, Every: 5}
			pollAllocs = testing.AllocsPerRun(50, func() {
				pw.Deadline = p.Now() + 200
				p.PollUntil(word, pw)
			})
			headAllocs = testing.AllocsPerRun(50, func() {
				h := HeadPoll{Serving: serving, Slots: slots, Ring: 2, OwnerBits: 8,
					Ticket: 1, Grace: 200, Every: 5}
				p.PollHead(&h)
			})
			const mask = Word(1)<<48 - 1
			claimAllocs = testing.AllocsPerRun(50, func() {
				// Wait out a foreign lease expiring 40 cycles from now,
				// then take it over.
				p.Store(lease, 2<<48|Word(p.Now()+40))
				p.PollUntil(lease, Poll{Expiry: mask, Every: 5, Claim: 1 << 48, Term: 100})
			})
			slicedAllocs = testing.AllocsPerRun(50, func() {
				// The other processor clears the latch every eighth
				// delay; 3-cycle slices expire in between.
				p.Store(latch, 1)
				p.SpinTASSliced(latch, Backoff{Base: 2, Cap: 8}, 3, 2, &timeouts)
			})
			p.Store(stop, 1)
		},
		func(p *Proc) {
			// Keep an event pending so the waits above park and are
			// advanced by the drive loop rather than retiring inline.
			for i := 0; p.Load(stop) == 0; i++ {
				p.Delay(7)
				if i%8 == 0 {
					p.Store(latch, 0)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pollAllocs != 0 || headAllocs != 0 || claimAllocs != 0 || slicedAllocs != 0 {
		t.Errorf("poll waits allocate: PollUntil %.1f, PollHead %.1f, claim %.1f, SpinTASSliced %.1f allocs/op",
			pollAllocs, headAllocs, claimAllocs, slicedAllocs)
	}
	if timeouts == 0 {
		t.Error("the sliced waits above never expired a slice")
	}
}
