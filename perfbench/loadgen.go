package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request of an open-loop schedule.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is timed from the due time, so a stall that delays later
// requests counts against each of them, not only the one it hit.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent the request.
func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends n requests due at evenly spaced times rate per second
// apart, starting at start, over conns connections. A connection takes the
// next request as soon as it is free and sends it at its due time, or at
// once when it is already late; do(i) performs request i.
func openLoop(start time.Time, n int, rate float64, conns int, do func(i int) error) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				waitUntil(due)
				s := &out[i]
				s.due = due
				s.sent = time.Now()
				s.err = do(i)
				s.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// timerSlack is the usual oversleep of a nanosleep on Linux.
const timerSlack = 60 * time.Microsecond

// waitUntil blocks until t. The Go runtime's timers wake up to a
// millisecond late, which would swamp sub-millisecond request latencies,
// so it sleeps in the nanosleep system call to just short of t and spins
// for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

// closedLoop runs do on conns connections, each sending its next request
// when the previous one completes, until n requests have been sent. It
// returns each request's latency and error.
func closedLoop(n, conns int, do func(i int) error) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &out[i]
				s.due = time.Now()
				s.sent = s.due
				s.err = do(i)
				s.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats is the per-phase account of a run of samples: requests sent,
// succeeded and failed, latency from the due time, and generator lateness.
type phaseStats struct {
	sent, ok, failed int
	latency, late    dist
	// achieved is requests completed per second, from the first due time
	// to the last completion.
	achieved float64
}

func account(ss []sample) phaseStats {
	var st phaseStats
	lat := make([]float64, 0, len(ss))
	late := make([]float64, 0, len(ss))
	for _, s := range ss {
		st.sent++
		if s.err != nil {
			st.failed++
			continue
		}
		st.ok++
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.lateness()))
	}
	st.latency, st.late = summarize(lat), summarize(late)
	if len(ss) > 0 {
		last := ss[0].done
		for _, s := range ss {
			if s.done.After(last) {
				last = s.done
			}
		}
		st.achieved = float64(st.ok) / last.Sub(ss[0].due).Seconds()
	}
	return st
}
