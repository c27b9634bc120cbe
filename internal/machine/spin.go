package machine

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file is the engine-level spin-wait machinery. A spinning
// processor used to replay its wait loop in its own goroutine: every
// failed probe cost one engine event plus one baton handoff (a channel
// send and a scheduler switch) to resume the goroutine, re-test, and
// issue the next probe. Under a raw test&set storm — the paper's central
// workload — almost every probe crosses a pending event, so the handoff
// dominated host time (BENCH_sim.json: ~2.5% of lock/tas ops retired
// inline).
//
// SpinTAS, SpinTTAS, SpinUntilPred (and the SpinUntil* wrappers) instead
// park the goroutine once and hand the wait to a per-processor spin
// state machine executed inside the drive loop. Each EvSpin event
// advances the machine by exactly the operations the goroutine loop
// would have performed at that moment — same side effects, same
// scheduling calls, same livelock-budget charges, same RNG draws, in the
// same order — so cycle counts, traffic counters, and the interleaving
// of all processors are bit-identical to probe-by-probe execution (the
// determinism regression tests in internal/simsync pin this). The only
// difference is host-side: the goroutine is resumed once, when the wait
// is over, instead of once per probe.
//
// On top of that, runs of failed probes whose schedule is deterministic
// and draw-free (raw test&set, fixed backoff) are charged in closed
// form: k probes collapse into O(1) counter arithmetic whenever the
// probe period is constant and no pending event or budget boundary falls
// inside the run (see spinBatchTAS).
//
// PollUntil and PollHead extend the same treatment to the polling
// loops of the fault-tolerant locks and barriers — load, judge, delay,
// repeat — whose exit conditions (a lease's expiry against the clock, a
// distance-proportional ticket delay, a queue head's suspected owner)
// are described as data and judged by the state machine instead of by
// a resumed goroutine. The acquire that follows such a wait runs there
// too: a poll with a claim issues its compare&swap from the judge and
// reloads on a lost race (the lease locks), and a sliced test&set wait
// serves its penalty and re-arms its next slice (the deadline lock), so
// the goroutine resumes once, holding the lock.

// PredOp selects the comparison a Pred applies.
type PredOp uint8

const (
	// PredEq holds when the (masked) value equals Want.
	PredEq PredOp = iota
	// PredNe holds when the (masked) value differs from Want.
	PredNe
	// PredGt holds when the (masked) value exceeds Want.
	PredGt
	// PredGe holds when the (masked) value is at least Want.
	PredGe
)

// Pred is a data-encoded spin predicate: it describes the wait condition
// without a closure, so registering it in the per-processor spin state
// allocates nothing. A zero Mask means "no mask" (compare the whole
// word).
type Pred struct {
	Op   PredOp
	Mask Word
	Want Word
}

// Holds reports whether the predicate is satisfied by v.
func (pr Pred) Holds(v Word) bool {
	if pr.Mask != 0 {
		v &= pr.Mask
	}
	switch pr.Op {
	case PredNe:
		return v != pr.Want
	case PredGt:
		return v > pr.Want
	case PredGe:
		return v >= pr.Want
	default:
		return v == pr.Want
	}
}

// Backoff describes the deterministic delay schedule between failed
// test&set probes. The zero value means "retry immediately" (the raw
// test&set storm). With Base > 0, each failed probe is followed by a
// delay of cur, where cur starts at Base and doubles up to Cap;
// Cap <= Base keeps the delay fixed. PropJitter additionally draws
// RNG().Time(cur) on top of each delay (Anderson-style proportional
// jitter).
type Backoff struct {
	Base       sim.Time
	Cap        sim.Time
	PropJitter bool
}

// Spin-wait kinds.
const (
	spinRead uint8 = iota // read probes: cached watch on Bus, polling on remote NUMA
	spinTAS               // test&set probes with a Backoff schedule
	spinTTAS              // read-spin until the predicate holds, then one test&set; repeat
	spinPoll              // poll wait: load, judge, delay; no watchers, no jitter (PollUntil)
	spinHead              // queue-head poll: serving load, slot load, judge, delay (PollHead)
)

// Spin state-machine phases. Each phase names the next operation to
// perform; a phase boundary is exactly a resumption point of the
// equivalent goroutine loop.
const (
	spReadIssue  uint8 = iota // issue a charged load of addr
	spReadJudge               // load completed: evaluate the predicate
	spTASIssue                // issue a charged test&set of addr
	spTASJudge                // test&set completed: evaluate the outcome
	spPollIssue               // poll wait: issue a charged load of addr
	spPollJudge               // poll load completed: judge, then delay or exit
	spHeadJudge               // head poll: serving load completed; issue the slot load
	spSlotJudge               // head poll: slot load completed; judge, then delay or exit
	spClaimJudge              // poll claim: compare&swap completed; exit if won, else reload
)

// spinState is the per-processor wait descriptor. It lives by value in
// the Proc and is reused across waits, so entering a spin allocates
// nothing.
type spinState struct {
	active bool
	kind   uint8
	phase  uint8
	poll   bool // remote word on a module machine: periodic polling instead of watching
	// winStatic is the spin-entry-time half of cross-processor window
	// eligibility (window.go): a draw-free raw or fixed-backoff
	// test&set on a model with a serializing resource. The dynamic
	// half — the last probe read non-zero — is tracked in the
	// machine's eligibility mask at each issue.
	winStatic bool
	// winService is this spinner's probe service time on the
	// serializing resource (BusLatency, or LocalMem plus the declared
	// distance-class traversal to the probed word's home module),
	// cached at spin entry so the window detector never recomputes the
	// topology's hop price per scan. Valid only while winStatic.
	winService sim.Time
	addr       Addr
	pred       Pred
	bo         Backoff
	cur        sim.Time // current backoff delay
	pollEvery  sim.Time // base poll spacing (topology-priced; set when poll)
	// deadline, when non-zero, bounds a test&set wait — the spin gives
	// up at the first probe boundary at or past it (SpinTASFor) — or a
	// poll wait, at the first failed judge at or past it (PollUntil). A
	// deadline spin is never window- or batch-eligible — the closed
	// forms would fast-forward past the give-up point.
	deadline sim.Time
	val      Word // last probed value; the spin's result

	// Sliced test&set waits (SpinTASSliced): a non-zero slice turns the
	// deadline exit into a timeout count, a penalty delay and a fresh
	// slice; rearm is set while the penalty is in flight.
	slice    sim.Time
	penalty  sim.Time
	timeouts *uint64
	rearm    bool

	// Poll waits (spinPoll, spinHead). pred.Want doubles as the
	// proportional target and the head poll's ticket.
	every  sim.Time // fixed delay after a failed judge
	propK  sim.Time // adds (pred.Want - val) * propK to the delay
	expiry Word     // non-zero: lease judge on this mask instead of pred
	claim  Word     // non-zero: compare&swap the judged value to claim | (clock+term)&expiry
	term   sim.Time // claim's term, stamped from the judge clock
	ok     bool     // PollUntil's result: false only on the deadline exit
	// Head poll: the announcement ring and its layout, the grace
	// period, the last slot value read, and the head tracking carried
	// across re-entries (see HeadPoll).
	slots     Addr
	ring      int32
	ownerBits uint8
	grace     sim.Time
	slot      Word
	head      headTrack
}

func (s *spinState) holds(v Word) bool {
	return s.pred.Holds(v)
}

// nextDelay computes the post-failure delay and advances the backoff
// schedule, drawing jitter from the processor's RNG in exactly the order
// the goroutine loop would have.
func (s *spinState) nextDelay(p *Proc) sim.Time {
	d := s.cur
	if s.bo.PropJitter {
		d += p.rng.Time(s.cur)
	}
	if s.cur < s.bo.Cap {
		s.cur *= 2
		if s.cur > s.bo.Cap {
			s.cur = s.bo.Cap
		}
	}
	return d
}

// pollHolds is the poll wait's exit test on the last probed value: the
// lease judge (free, or its masked expiry at or before the clock) when
// an expiry mask is set, else the predicate.
func (s *spinState) pollHolds(now sim.Time) bool {
	if s.expiry != 0 {
		return s.val == 0 || sim.Time(s.val&s.expiry) <= now
	}
	return s.pred.Holds(s.val)
}

// pollDelay is the delay after a failed poll judge: the fixed spacing
// plus the distance-proportional term, clamped at zero as Proc.Delay
// clamps.
func (s *spinState) pollDelay() sim.Time {
	d := s.every
	if s.propK != 0 {
		d += sim.Time(s.pred.Want-s.val) * s.propK
	}
	if d < 0 {
		d = 0
	}
	return d
}

// spinBegin enters a machine-driven spin wait on the calling processor's
// goroutine. The state machine runs inline until the wait either
// completes (every probe retired on the fast path — the uncontended
// case, which schedules no event and performs no handoff, exactly like
// the goroutine loop it replaces) or must wait for an event, in which
// case the goroutine drives the engine like any blocked processor and
// returns when its spin completes.
func (p *Proc) spinBegin(kind uint8, a Addr, pr Pred, bo Backoff, deadline sim.Time) Word {
	s := &p.spin
	s.active = true
	s.kind = kind
	s.addr = a
	s.pred = pr
	s.bo = bo
	s.cur = bo.Base
	s.poll = false
	s.deadline = deadline
	if deadline > 0 {
		// A timed-out wait reports the last probed value; seed it
		// non-zero so a deadline already in the past reads as failure
		// without issuing a probe.
		s.val = 1
	}
	if kind != spinTAS && p.m.disc == topo.Modules {
		if mod := p.m.home(a); mod != p.id {
			s.poll = true
			s.pollEvery = p.m.topo.PollSpacing(p.id, mod, p.m.tm)
		}
	}
	s.winStatic = deadline == 0 && p.m.winStatic(p, kind, a, bo)
	s.phase = spReadIssue
	if kind == spinTAS {
		s.phase = spTASIssue
	}
	p.spinRun()
	return s.val
}

// spinRun runs the wait described by p.spin to completion: inline
// while every operation retires on the fast path, then parked in the
// drive loop until an EvSpin completes it. Poll waits (PollUntil,
// PollHead) enter here directly: they register no watchers, draw no
// jitter, and are never window- or batch-eligible.
func (p *Proc) spinRun() {
	s := &p.spin
	if !p.m.spinAdvance(p) {
		p.m.drive(p)
	}
	s.active = false
	if s.winStatic {
		p.m.setWinMask(p.id, false) // the wait is over; no probe is pending
	}
	p.blockedOn = ""
}

// spinComplete mirrors Proc.complete for an operation issued by the spin
// state machine: retire inline when no pending event precedes the
// completion (charging the livelock budget), otherwise schedule the
// continuation as an EvSpin at the completion time. The scheduling
// decision, charge, and event timestamp are identical to the goroutine
// path; only the event kind differs, which the engine orders identically.
func (p *Proc) spinComplete(lat sim.Time, next uint8) bool {
	target := p.localNow + lat
	eng := p.m.eng
	if nxt, ok := eng.NextTime(); !ok || nxt > target {
		if !eng.ChargeStep() {
			p.localNow = target
			p.m.stats.InlineOps++
			p.spin.phase = next
			return true
		}
	}
	p.spin.phase = next
	eng.AtEvent(target, sim.EvSpin, int32(p.id), int32(p.spin.addr))
	return false
}

// spinAdvance runs p's spin state machine until it completes (returns
// true: the processor's program resumes at p.localNow) or must wait for
// an engine event or a write to the watched word (returns false). It is
// called from the drive loop when an EvSpin fires, and once at spin
// entry on the processor's own goroutine.
func (m *Machine) spinAdvance(p *Proc) bool {
	s := &p.spin
	if s.kind >= spinPoll {
		return m.pollAdvance(p)
	}
	for {
		switch s.phase {
		case spReadIssue:
			p.blockedOn = "spin"
			v, lat := p.loadIssue(s.addr)
			s.val = v
			if !p.spinComplete(lat, spReadJudge) {
				return false
			}
		case spReadJudge:
			if s.holds(s.val) {
				if s.kind == spinTTAS {
					s.phase = spTASIssue
					continue
				}
				return true
			}
			if s.poll {
				// Remote word on a module machine: no cache to spin in,
				// so poll the module with jitter at the spacing the
				// topology prices for this distance.
				jitter := p.rng.Time(s.pollEvery/2 + 1)
				if !p.spinComplete(s.pollEvery+jitter, spReadIssue) {
					return false
				}
				continue
			}
			// A write may have committed while our load was in flight. A
			// real snooping cache would have observed that invalidation,
			// so recheck the committed value before parking and pay a
			// normal re-read if it changed.
			if s.holds(m.mem[s.addr]) {
				s.phase = spReadIssue
				continue
			}
			p.watchRegister(s.addr)
			s.phase = spReadIssue // a write wakes us into a charged re-read
			return false
		case spTASIssue:
			p.blockedOn = "spin"
			if s.deadline > 0 && p.localNow >= s.deadline {
				if s.slice == 0 {
					return true // out of time: s.val is non-zero, the wait failed
				}
				if !p.sliceExpired() {
					return false // the penalty delay is pending
				}
			}
			if s.kind == spinTAS {
				m.spinBatchTAS(p)
			}
			old, lat := p.tasIssue(s.addr)
			s.val = old
			if s.winStatic {
				// Keep the window-eligibility mask current: the probe
				// in flight is batchable iff it read a non-zero value
				// (a zero read means this spinner wins at the judge).
				m.setWinMask(p.id, old != 0)
			}
			if !p.spinComplete(lat, spTASJudge) {
				return false
			}
		case spTASJudge:
			if s.val == 0 {
				return true // test&set won the word
			}
			if s.kind == spinTTAS {
				s.phase = spReadIssue // lock still held: back to the cached read spin
				continue
			}
			if s.bo.Base > 0 {
				if !p.spinComplete(s.nextDelay(p), spTASIssue) {
					// The delay scheduled as its own event: the pending
					// entry is now an issue, not a probe completion, so
					// the spinner is not window-batchable until the
					// next issue re-evaluates the mask.
					if s.winStatic {
						m.setWinMask(p.id, false)
					}
					return false
				}
				continue
			}
			s.phase = spTASIssue // raw storm: retry immediately
		}
	}
}

// sliceExpired ends an expired slice of a sliced test&set wait the way
// the goroutine loop it replaces did: count the timeout, delay the
// penalty, then re-arm as a fresh SpinTASFor would — backoff back to
// Base, the result seeded non-zero, and the next deadline taken from
// the clock after the penalty completed (a stall may have deferred that
// point). It reports false while the penalty's completion is pending;
// the wait then re-enters spTASIssue with rearm set and re-arms there.
func (p *Proc) sliceExpired() bool {
	s := &p.spin
	if !s.rearm {
		*s.timeouts++
		s.rearm = true
		if !p.spinComplete(s.penalty, spTASIssue) {
			return false
		}
	}
	s.rearm = false
	s.cur = s.bo.Base
	s.val = 1
	s.deadline = p.localNow + s.slice
	return true
}

// pollAdvance is spinAdvance for the poll waits (PollUntil, PollHead),
// with the same contract. It is a separate function because folding
// its phases into spinAdvance's switch measurably slowed the read and
// test&set spins (see DESIGN.md, "Poll waits").
func (m *Machine) pollAdvance(p *Proc) bool {
	s := &p.spin
	for {
		switch s.phase {
		case spPollIssue:
			p.blockedOn = "poll"
			next := spPollJudge
			if s.kind == spinHead {
				next = spHeadJudge
			}
			v, lat := p.loadIssue(s.addr)
			s.val = v
			if !p.spinComplete(lat, next) {
				return false
			}
		case spPollJudge:
			if s.pollHolds(p.localNow) {
				if s.claim == 0 {
					s.ok = true
					return true
				}
				// Claim exit: race for the word with a compare&swap of
				// the judged value, stamped from the judge clock.
				ok, lat := p.casIssue(s.addr, s.val, s.claim|Word(p.localNow+s.term)&s.expiry)
				s.ok = ok
				if !p.spinComplete(lat, spClaimJudge) {
					return false
				}
				continue
			}
			if s.deadline > 0 && p.localNow >= s.deadline {
				s.ok = false
				return true
			}
			if !p.spinComplete(s.pollDelay(), spPollIssue) {
				return false
			}
		case spClaimJudge:
			if s.ok {
				return true // the claim won: the caller holds the word
			}
			s.phase = spPollIssue // lost the race: reload at once
		case spHeadJudge:
			if s.val >= s.pred.Want {
				return true // our ticket was served, or excised past
			}
			if !s.head.tracking || s.val != s.head.seen {
				s.head = headTrack{seen: s.val, since: p.localNow, tracking: true}
			}
			v, lat := p.loadIssue(s.slots + Addr(int(s.val)%int(s.ring)))
			s.slot = v
			if !p.spinComplete(lat, spSlotJudge) {
				return false
			}
		case spSlotJudge:
			if s.slot>>s.ownerBits == s.val {
				// An empty owner field (a slot never announced, read as
				// ticket 0) names no processor to suspect.
				owner := int(s.slot&(Word(1)<<s.ownerBits-1)) - 1
				if owner >= 0 && owner != p.id && m.SuspectedAt(owner, p.localNow) {
					return true // the head's owner is suspected dead
				}
			}
			if p.localNow-s.head.since >= s.grace {
				return true // the head has not moved for a grace period
			}
			if !p.spinComplete(s.every, spPollIssue) {
				return false
			}
		}
	}
}

// spinBatchTAS charges a run of failed test&set probes in closed form.
// It applies only when every probe in the run is provably identical —
// draw-free constant backoff, predicate-failing steady value, no
// watchers to wake, and a memory system in steady state (the processor
// already owns the word on Bus; the module port is idle on NUMA) — and
// only up to the first pending event or livelock-budget boundary, where
// the normal probe-by-probe path takes over. Within those bounds the
// per-probe effects are pure arithmetic on the counters, so k probes
// collapse into O(1) work with bit-identical results.
func (m *Machine) spinBatchTAS(p *Proc) {
	s := &p.spin
	// Backoff must be draw-free and no longer growing; a deadline spin
	// must judge its give-up point at every probe boundary, so it is
	// never batched.
	if s.deadline != 0 || s.bo.PropJitter || (s.bo.Base > 0 && s.cur < s.bo.Cap) {
		return
	}
	a := s.addr
	if m.mem[a] == 0 || m.watchHead[a] != 0 {
		return // the next probe may succeed, or writes must wake watchers
	}
	var lat sim.Time
	remote := false
	switch m.disc {
	case topo.SnoopingBus:
		if m.owner[a] != int16(p.id)+1 {
			return // first probe still needs a bus transaction
		}
		lat = m.cfg.CacheHit
	case topo.Modules:
		mod := m.home(a)
		if m.modFreeAt[mod] > p.localNow {
			return // port still draining: occupancy is not yet steady
		}
		trav := m.topo.Traversal(p.id, mod, m.tm)
		if m.flt != nil {
			// Price the whole run at the degrade factor active now; the
			// fault-boundary clamp below guarantees the factor cannot
			// change inside the batched span.
			if f := m.flt.degradeFactor(mod, p.localNow); f > 1 {
				trav *= sim.Time(f)
			}
		}
		lat = m.cfg.LocalMem + trav
		remote = m.topo.Remote(p.id, mod)
	default:
		lat = 1
	}
	delay := sim.Time(0)
	charges := uint64(1) // the test&set completion
	if s.bo.Base > 0 {
		delay = s.cur
		charges = 2 // plus the backoff delay completion
	}
	period := lat + delay
	if period <= 0 {
		return
	}
	k := m.eng.ChargeBudget() / charges
	if next, ok := m.eng.NextTime(); ok {
		// Every per-probe completion must stay strictly before the next
		// pending event; the run's last completion is at localNow + k*period.
		span := int64(next - p.localNow - 1)
		if span < int64(period) {
			return
		}
		if byTime := uint64(span / int64(period)); byTime < k {
			k = byTime
		}
	}
	if m.flt != nil {
		// Likewise stay strictly before the next fault boundary, where
		// the degrade factor (and hence the per-probe latency) may
		// change. A pending crash is already an event, caught above;
		// clamping on every bound kind is merely conservative — a
		// shorter batch is always exact, the tail replays per-probe.
		if fb, ok := m.flt.nextBound(p.localNow); ok {
			span := int64(fb - p.localNow - 1)
			if span < int64(period) {
				return
			}
			if byTime := uint64(span / int64(period)); byTime < k {
				k = byTime
			}
		}
	}
	if k < 2 {
		return // not worth short-circuiting; the normal path handles it
	}
	// Apply k failed probes at once. mem[a] is already non-zero; the
	// test&set write of 1 is idempotent after the first probe.
	m.mem[a] = 1
	p.stats.RMWs += k
	if remote {
		p.stats.RemoteRefs += k
		m.stats.RemoteRefs += k
	}
	if m.disc == topo.Modules {
		mod := m.home(a)
		m.modFreeAt[mod] = p.localNow + sim.Time(k-1)*period + lat
	}
	m.eng.ChargeN(k * charges)
	m.stats.InlineOps += k * charges
	p.localNow += sim.Time(k) * period
}

// watchRegister appends p to the intrusive watcher list of addr; the
// next write to addr schedules its wake. Links are processor index + 1,
// zero-terminated (see Machine.watchHead).
func (p *Proc) watchRegister(a Addr) {
	p.blockedOn = "watch"
	p.blockedAddr = a
	link := int32(p.id) + 1
	p.watchNext = 0
	if tail := p.m.watchTail[a]; tail != 0 {
		p.m.procs[tail-1].watchNext = link
	} else {
		p.m.watchHead[a] = link
	}
	p.m.watchTail[a] = link
}

// ---------------------------------------------------------------------
// Public spin-wait API
// ---------------------------------------------------------------------

// SpinUntilPred blocks until pred holds for the word at a, returning the
// satisfying value. The cost model depends on the machine:
//
//   - Bus/Ideal: the classic cached spin. The first read may miss; while
//     the value is unchanged the spinner consumes no interconnect
//     bandwidth (it spins in its own cache); each write to the word
//     invalidates and forces a re-read, charged through the normal path.
//   - NUMA, word in another module: there is no cache to spin in, so the
//     processor polls the remote module every PollInterval cycles; every
//     poll is a remote reference. This is exactly why remote-spin
//     algorithms melt Butterfly-class machines.
//   - NUMA, word in this processor's module: local spin; watchers model
//     the (free) local re-check and each wakeup pays one local access.
//
// The wait itself is machine-driven: the processor's goroutine parks
// once and the engine replays the probes (see the package comment above).
func (p *Proc) SpinUntilPred(a Addr, pred Pred) Word {
	return p.spinBegin(spinRead, a, pred, Backoff{}, 0)
}

// SpinWhileEq is shorthand for spinning until the word differs from
// sentinel.
func (p *Proc) SpinWhileEq(a Addr, sentinel Word) Word {
	return p.spinBegin(spinRead, a, Pred{Op: PredNe, Want: sentinel}, Backoff{}, 0)
}

// SpinUntilEq is shorthand for spinning until the word equals want.
func (p *Proc) SpinUntilEq(a Addr, want Word) Word {
	return p.spinBegin(spinRead, a, Pred{Op: PredEq, Want: want}, Backoff{}, 0)
}

// SpinTAS repeatedly issues test&set on a until it returns 0 (the caller
// then holds the latch), applying the Backoff schedule between failed
// probes. With the zero Backoff this is the raw test&set storm: every
// probe is an atomic read-modify-write hammering the interconnect for as
// long as the word stays non-zero.
func (p *Proc) SpinTAS(a Addr, bo Backoff) {
	p.spinBegin(spinTAS, a, Pred{}, bo, 0)
}

// SpinTASFor is the bounded-wait form of SpinTAS: it gives up at the
// first probe boundary at or past the absolute deadline, reporting
// whether the latch was won. A wait whose deadline has already passed
// issues no probe and reports failure. Deadline waits replay
// probe-by-probe (no closed-form batching or windowing — the give-up
// point must be judged at every boundary), so they remain bit-identical
// across every execution path by construction.
func (p *Proc) SpinTASFor(a Addr, bo Backoff, deadline sim.Time) bool {
	if deadline <= 0 {
		deadline = 1 // a degenerate deadline in the past, never "unbounded"
	}
	p.spin.slice = 0
	return p.spinBegin(spinTAS, a, Pred{}, bo, deadline) == 0
}

// SpinTASSliced acquires the latch at a with test&set probes in bounded
// slices: each slice is a SpinTASFor wait of slice cycles, and at every
// expired slice it increments *timeouts, delays penalty
// cycles and starts the next slice from the clock after the delay. It
// is probe-for-probe the goroutine loop
//
//	for !p.SpinTASFor(a, bo, p.Now()+slice) {
//		*timeouts++
//		p.Delay(penalty)
//	}
//
// but the slices re-arm inside the engine, so the goroutine parks once
// and resumes holding the latch. The counter is bumped at each expiry,
// as the loop bumped it, so a processor that crashes mid-wait leaves
// the same count behind.
func (p *Proc) SpinTASSliced(a Addr, bo Backoff, slice, penalty sim.Time, timeouts *uint64) {
	if slice <= 0 {
		slice = 1
	}
	if penalty < 0 {
		penalty = 0
	}
	s := &p.spin
	s.slice, s.penalty, s.timeouts, s.rearm = slice, penalty, timeouts, false
	p.spinBegin(spinTAS, a, Pred{}, bo, p.localNow+slice)
}

// Poll describes a polling wait as data: PollUntil loads the word,
// judges the value, and on failure delays before the next load. The
// wait ends when Until holds — or, when Expiry is non-zero, when the
// word is zero or its Expiry-masked bits, read as an absolute time, are
// at or before the processor's clock at the judge (a lease word whose
// holder's term ran out). The delay after a failed judge is Every plus
// (Until.Want - value) * PropK, clamped at zero: a fixed spacing, a
// spacing proportional to the distance from the wanted value (a ticket
// waiter's distance from the head), or both. A non-zero Deadline adds
// a give-up exit at the first failed judge at or past that absolute
// time.
//
// A non-zero Claim makes the wait an acquire: when the judge holds, the
// processor issues a compare&swap of the judged value to
// Claim | (clock+Term)&Expiry, with the clock read at the judge. A won
// compare&swap ends the wait; a lost one reloads at once.
type Poll struct {
	Until    Pred
	Expiry   Word
	Every    sim.Time
	PropK    sim.Time
	Deadline sim.Time
	Claim    Word
	Term     sim.Time
}

// PollUntil runs the poll wait w on the word at a and returns the last
// value read and whether the wait's condition held (false only on the
// Deadline exit); with a Claim, the value is the one the won
// compare&swap replaced. It is probe-for-probe the goroutine loop
//
//	for {
//		v := p.Load(a)
//		if <condition holds for v at p.Now()> {
//			if w.Claim == 0 { return v, true }
//			if p.CompareAndSwap(a, v, <claim stamped at p.Now()>) { return v, true }
//			continue
//		}
//		if w.Deadline > 0 && p.Now() >= w.Deadline { return v, false }
//		p.Delay(<delay for v>)
//	}
//
// with the same charges, the same event slots and the same clocks, but
// the goroutine parks once and the engine replays the probes. Unlike
// SpinUntilPred, a poll wait is the same on every topology: it never
// parks on a watcher and draws no remote-poll jitter.
func (p *Proc) PollUntil(a Addr, w Poll) (Word, bool) {
	s := &p.spin
	*s = spinState{active: true, kind: spinPoll, phase: spPollIssue, addr: a, pred: w.Until,
		every: w.Every, propK: w.PropK, expiry: w.Expiry, claim: w.Claim, term: w.Term, deadline: w.Deadline}
	p.spinRun()
	return s.val, s.ok
}

// headTrack is the queue-head tracking a head poll carries across
// re-entries: the head ticket last seen and the clock when it was
// first seen there.
type headTrack struct {
	seen     Word
	since    sim.Time
	tracking bool // false until the first serving load of the wait
}

// HeadPoll describes a queue-head poll over a ticket queue: Serving
// holds the lowest unserved ticket, and the holder of ticket s
// announces itself in Slots + s%Ring as s<<OwnerBits | (owner+1). The
// wait for Ticket loads Serving; when the head s is still ahead of
// Ticket it loads the head's slot and ends early if the slot announces
// s with an owner (not this processor) that the failure detector
// suspects at the judge, or if the head has not moved for
// Grace cycles; otherwise it delays Every and repeats. The caller keeps
// the HeadPoll across calls: the head tracking (which ticket was last
// seen at the head, and since when) carries over re-entries, so a
// caller that excises the head and waits again sees the same grace
// clock as one continuous loop would.
type HeadPoll struct {
	Serving   Addr
	Slots     Addr
	Ring      int
	OwnerBits uint8
	Ticket    Word
	Grace     sim.Time
	Every     sim.Time

	head headTrack
}

// PollHead runs the head poll h and returns the last serving value
// read and whether the wait ended because the head reached Ticket
// (serving >= Ticket: equal means our turn, greater means our ticket
// was excised). On false the head s is stuck — its owner is suspected,
// or the grace period ran out — and the caller decides what to do
// about it before calling PollHead again. Like PollUntil, it is
// probe-for-probe the equivalent Load/Delay goroutine loop.
func (p *Proc) PollHead(h *HeadPoll) (Word, bool) {
	s := &p.spin
	*s = spinState{active: true, kind: spinHead, phase: spPollIssue, addr: h.Serving, pred: Pred{Want: h.Ticket},
		every: h.Every, slots: h.Slots, ring: int32(h.Ring), ownerBits: h.OwnerBits, grace: h.Grace, head: h.head}
	p.spinRun()
	h.head = s.head
	return s.val, s.val >= h.Ticket
}

// SpinTTAS is the test-and-test&set discipline: spin with ordinary reads
// until the word looks free (zero), then attempt one test&set; on
// failure, fall back to the read spin. Traffic drops from continuous to
// one burst per release.
func (p *Proc) SpinTTAS(a Addr) {
	p.spinBegin(spinTTAS, a, Pred{Op: PredEq, Want: 0}, Backoff{}, 0)
}
