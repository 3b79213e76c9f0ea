package main

import "time"

// spinMargin is how long before a due time waitUntil stops sleeping and
// spins: about how late a high-resolution timer wake-up typically is.
const spinMargin = 50 * time.Microsecond

// sleepUntil sleeps until t has passed. A pacer holds one loop of the
// benchmark to its schedule, and one goroutine uses it at a time. Go's
// own timers wake up to a millisecond late when no processor is busy
// (the scheduler then waits in epoll, whose timeout is in
// milliseconds), which a latency timed from a due time would count as
// the System's. A pacer sleeps on a high-resolution timer instead
// (pacer_linux.go), about 0.1 ms late at most on an idle machine.
func (p *pacer) sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		p.sleep(d)
	}
}

// waitUntil returns at t, within a few microseconds: it sleeps until
// spinMargin before t and spins over the rest.
func (p *pacer) waitUntil(t time.Time) {
	p.sleepUntil(t.Add(-spinMargin))
	for time.Now().Before(t) {
	}
}
