package main

import "time"

// The simulator hands a baton between goroutines at every blocking
// point, so its speed follows the host's speed at a goroutine switch.
// On a shared host that speed moves by up to 1.4× within seconds while
// the program stays the same (NOTES.md, "Noise, run length and bounds").
// A hostProbe times a fixed goroutine ping-pong between cell runs; each
// cell run's host times are scaled by refRoundTrip over the round trip
// measured around it, so the simulator workloads report seconds at a
// fixed host speed. The probe is the benchmark's own code: a change to
// the program cannot move it.

// refRoundTrip is the reference host speed: one round trip of an
// unbuffered channel ping-pong between two goroutines on one scheduler
// thread. 700 ns is the median on the 2-vCPU development host.
const refRoundTrip = 700 * time.Nanosecond

// probeTrips is the round trips of one probe, about 1.4 ms.
const probeTrips = 2000

type hostProbe struct{ ping, pong chan struct{} }

func newHostProbe() *hostProbe {
	p := &hostProbe{ping: make(chan struct{}), pong: make(chan struct{})}
	go func() {
		for range p.ping {
			p.pong <- struct{}{}
		}
		close(p.pong)
	}()
	return p
}

// roundTrip is the mean round trip of one probe.
func (p *hostProbe) roundTrip() time.Duration {
	t0 := time.Now()
	for i := 0; i < probeTrips; i++ {
		p.ping <- struct{}{}
		<-p.pong
	}
	return time.Since(t0) / probeTrips
}

// stop ends the echo goroutine and waits for it.
func (p *hostProbe) stop() {
	close(p.ping)
	<-p.pong
}

// scale is the factor from host time to reference time for a run
// bracketed by round trips a and b.
func scale(a, b time.Duration) float64 { return 2 * float64(refRoundTrip) / float64(a+b) }

func scaled(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
