package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"diads/internal/api"
)

// The load generator lives in the benchmark's process: goroutines over a
// keep-alive loopback client, at most one in-flight request per
// connection.

const (
	// retryEvery and retryBudget are the 429 contract of the harness: a
	// refused POST is retried after 1 ms for at most 2 s, then counts as
	// failed.
	retryEvery  = time.Millisecond
	retryBudget = 2 * time.Second
)

// connections is the closed loop's client count: min(nproc, 4).
func connections(nproc int) int { return max(1, min(nproc, 4)) }

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
}

// postResult is what one POST cost and answered.
type postResult struct {
	sent    time.Time // when the first attempt started
	done    time.Time // when the 202 (or the final refusal) was read
	depth   int       // IngestReply.QueueDepth
	retries int       // 429s absorbed
	err     error     // non-nil: the POST failed
}

// postStep sends one pre-serialised step and reads the reply.
func postStep(client *http.Client, base string, s *step) postResult {
	res := postResult{sent: time.Now()}
	for {
		resp, err := client.Post(base+stepRoute[s.kind], "application/json", bytes.NewReader(s.body))
		if err != nil {
			res.done, res.err = time.Now(), err
			return res
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.done = time.Now()
		if err != nil {
			res.err = err
			return res
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var reply api.IngestReply
			if err := json.Unmarshal(body, &reply); err != nil {
				res.err = fmt.Errorf("decoding 202 reply: %w", err)
			}
			res.depth = reply.QueueDepth
			return res
		case resp.StatusCode == http.StatusTooManyRequests && res.done.Sub(res.sent) < retryBudget:
			res.retries++
			time.Sleep(retryEvery)
		default:
			res.err = fmt.Errorf("POST %s: %d %s", stepRoute[s.kind], resp.StatusCode, bytes.TrimSpace(body))
			return res
		}
	}
}

// postLog is the outcome of replaying a schedule.
type postLog struct {
	first    time.Time // first send (open loop: when the schedule started)
	latency  []time.Duration
	late     []time.Duration // open loop: how late each send started
	due      []time.Time     // open loop: when each post was due
	depthMax int
	retries  int
	failed   []error
}

func (l *postLog) record(r postResult, from time.Time) {
	l.latency = append(l.latency, r.done.Sub(from))
	l.depthMax = max(l.depthMax, r.depth)
	l.retries += r.retries
	if r.err != nil {
		l.failed = append(l.failed, r.err)
	}
}

func (l *postLog) merge(o *postLog) {
	if l.first.IsZero() || (!o.first.IsZero() && o.first.Before(l.first)) {
		l.first = o.first
	}
	l.latency = append(l.latency, o.latency...)
	l.depthMax = max(l.depthMax, o.depthMax)
	l.retries += o.retries
	l.failed = append(l.failed, o.failed...)
}

// closedLoop replays one schedule per connection, each sending its next
// step only after the previous reply: a slow server receives less load.
func closedLoop(client *http.Client, base string, sched [][]post, tr *tracer) *postLog {
	logs := make([]postLog, len(sched))
	var wg sync.WaitGroup
	for c := range sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for _, p := range sched[c] {
				sp := tr.start("client.Post", layerAPI, 0, p.tenant)
				r := postStep(client, base, p.step)
				sp.end()
				if l.first.IsZero() {
					l.first = r.sent
				}
				l.record(r, r.sent)
			}
		}(c)
	}
	wg.Wait()
	total := &postLog{}
	for i := range logs {
		total.merge(&logs[i])
	}
	return total
}

// dueTimes places a single connection's posts on a fixed evidence rate:
// post k is due once the items before it have been sent at rate items
// per second.
func dueTimes(posts []post, rate float64) []time.Duration {
	due := make([]time.Duration, len(posts))
	sent := 0
	for i, p := range posts {
		due[i] = time.Duration(float64(sent) / rate * float64(time.Second))
		sent += p.step.items
	}
	return due
}

// openLoop sends posts on their schedule regardless of how the server
// keeps up: each post's latency runs from when it was due, so a stall
// charges every request queued behind it, and the sender's own lateness
// is reported.
func openLoop(client *http.Client, base string, posts []post, due []time.Duration, tr *tracer) *postLog {
	start := time.Now()
	l := &postLog{first: start, due: make([]time.Time, len(posts))}
	for i, p := range posts {
		at := start.Add(due[i])
		l.due[i] = at
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		sp := tr.start("client.Post", layerAPI, 0, p.tenant)
		r := postStep(client, base, p.step)
		sp.end()
		l.late = append(l.late, r.sent.Sub(at))
		l.record(r, at)
	}
	return l
}
