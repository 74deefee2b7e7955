package main

import (
	"sync"
	"time"
)

// An open-loop load generator: requests are sent on a fixed schedule
// whatever the server does, so a stall delays every later request and
// the queue can grow. Each request is timed from when it was due, not
// from when it was sent, so the wait a stall imposes on later requests
// counts; how late the generator itself dispatched is recorded apart,
// to validate the run.

// timedReq is one scheduled request: its offset from the start of the
// load and what to send.
type timedReq struct {
	due  time.Duration
	step int // index of the fixed-rate step it belongs to
	send func() outcome
}

// outcome is what one request produced.
type outcome struct {
	route  string
	failed string // empty when every check on the response held
}

// sample is one completed request, measured from its due time.
type sample struct {
	step    int
	route   string
	due     time.Duration
	latency time.Duration // completion minus due time
	late    time.Duration // dispatch minus due time
	failed  string
}

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule builds a run of fixed-rate steps, each lasting stepDur, with
// requests evenly spaced at the step's rate. next supplies each request.
func schedule(rates []float64, stepDur time.Duration, next func() func() outcome) []timedReq {
	var reqs []timedReq
	for s, rate := range rates {
		start := time.Duration(s) * stepDur
		n := int(rate * stepDur.Seconds())
		gap := time.Duration(float64(time.Second) / rate)
		for i := 0; i < n; i++ {
			reqs = append(reqs, timedReq{due: start + time.Duration(i)*gap, step: s, send: next()})
		}
	}
	return reqs
}

// runOpenLoop dispatches every request at its due time, each on its own
// goroutine, and returns once all have completed. The transport the
// send functions use bounds the connections in flight; requests beyond
// it wait for a connection, and that wait is part of their latency.
func runOpenLoop(clk clock, reqs []timedReq) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	start := clk.Now()
	for i, r := range reqs {
		if wait := r.due - clk.Now().Sub(start); wait > 0 {
			clk.Sleep(wait)
		}
		late := clk.Now().Sub(start) - r.due
		wg.Add(1)
		go func(i int, r timedReq, late time.Duration) {
			defer wg.Done()
			o := r.send()
			out[i] = sample{
				step: r.step, route: o.route, failed: o.failed, due: r.due,
				latency: clk.Now().Sub(start) - r.due, late: late,
			}
		}(i, r, late)
	}
	wg.Wait()
	return out
}
