// Package fabric federates ATPG campaigns across a fleet of job-service
// workers: a coordinator splits a campaign into the shards of the same
// deterministic campaign.Plan a local campaign.Execute runs, dispatches
// them as jobs over the service JSON API, holds each dispatched shard
// under a heartbeat-renewed lease, re-dispatches lost shards from their
// last durable checkpoint, and merges the per-shard results into a
// global Result byte-identical to a single-node Execute of that plan.
//
// Robustness is the design center, so the package also ships its own
// chaos instrumentation: FaultRT mirrors ioguard.FaultFS at the
// network layer — a fault-injecting http.RoundTripper that can fail
// the Nth request, add latency, tear response bodies, or blackhole a
// worker until released — which makes multi-node failure scenarios
// scripted and deterministic instead of racy.
package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Injection errors. ErrRTInjected is the generic scripted failure;
// ErrRTBlackhole reports a request that sat in a partition until its
// context gave up.
var (
	ErrRTInjected  = errors.New("fabric: injected network fault")
	ErrRTBlackhole = errors.New("fabric: request blackholed (partition)")
)

// RTMode selects what a matching RTRule does to the request.
type RTMode int

const (
	// RTFail fails the round trip without sending anything.
	RTFail RTMode = iota
	// RTLatency sleeps Rule.Delay, then sends normally.
	RTLatency
	// RTTorn performs the request but truncates the response body, the
	// network equivalent of a torn write: the client sees a prefix and
	// then an unexpected EOF.
	RTTorn
	// RTBlackhole parks the request until the transport is Released or
	// the request's context expires — a network partition. Requests
	// issued after Release pass through normally.
	RTBlackhole
)

func (m RTMode) String() string {
	switch m {
	case RTFail:
		return "fail"
	case RTLatency:
		return "latency"
	case RTTorn:
		return "torn"
	case RTBlackhole:
		return "blackhole"
	}
	return fmt.Sprintf("rtmode(%d)", int(m))
}

// RTRule scripts one network fault: it matches requests by method,
// host substring, path substring and position in the request sequence,
// and injects Mode. Rules are evaluated in order; the first match
// fires.
type RTRule struct {
	// Method restricts the rule to one HTTP method ("GET", "POST");
	// empty matches every method.
	Method string
	// HostContains restricts the rule to requests whose target host
	// contains this substring — how a test partitions one worker out of
	// a fleet. Empty matches every host.
	HostContains string
	// PathContains restricts the rule to request paths containing this
	// substring. Empty matches every path.
	PathContains string
	// From and Count bound the firing window in request indices: the
	// rule fires on matching requests whose index is in
	// [From, From+Count). Count <= 0 leaves the window open-ended.
	From, Count int
	// Mode is the injected behavior; the zero value is RTFail.
	Mode RTMode
	// Err overrides the returned error for RTFail; nil selects
	// ErrRTInjected.
	Err error
	// KeepBytes is how much of a torn response body the client sees:
	// 0 means half, negative means nothing.
	KeepBytes int
	// Delay is the sleep for RTLatency.
	Delay time.Duration
}

// FaultRT wraps an inner http.RoundTripper and injects scripted
// network faults, counting requests so schedules are deterministic.
// The rule set can be swapped mid-run (SetRules) to start a partition
// at a precise moment, and Release heals every blackhole at once.
type FaultRT struct {
	inner http.RoundTripper

	mu       sync.Mutex
	rules    []RTRule
	reqs     int
	trips    int
	released chan struct{}
	healed   bool
	onTrip   func(req int, r RTRule)
}

// NewFaultRT wraps inner (nil selects http.DefaultTransport) with the
// given fault schedule. With no rules it is a transparent pass-through
// that counts requests.
func NewFaultRT(inner http.RoundTripper, rules ...RTRule) *FaultRT {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultRT{inner: inner, rules: rules, released: make(chan struct{})}
}

// SetRules replaces the fault schedule. Chaos tests use it to begin a
// partition at a chosen point in the run rather than a request index
// known in advance.
func (f *FaultRT) SetRules(rules ...RTRule) {
	f.mu.Lock()
	f.rules = rules
	f.mu.Unlock()
}

// Release heals every blackhole: parked requests proceed, and future
// requests ignore RTBlackhole rules.
func (f *FaultRT) Release() {
	f.mu.Lock()
	if !f.healed {
		f.healed = true
		close(f.released)
	}
	f.mu.Unlock()
}

// Requests reports how many round trips have been issued.
func (f *FaultRT) Requests() int { f.mu.Lock(); defer f.mu.Unlock(); return f.reqs }

// Trips reports how many times a rule has fired.
func (f *FaultRT) Trips() int { f.mu.Lock(); defer f.mu.Unlock(); return f.trips }

// OnTrip registers a callback invoked (without internal locks held)
// every time a rule fires.
func (f *FaultRT) OnTrip(fn func(req int, r RTRule)) { f.mu.Lock(); f.onTrip = fn; f.mu.Unlock() }

// RoundTrip implements http.RoundTripper.
func (f *FaultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	idx := f.reqs
	f.reqs++
	var hit *RTRule
	for i := range f.rules {
		r := &f.rules[i]
		if r.Method != "" && r.Method != req.Method {
			continue
		}
		if r.HostContains != "" && !strings.Contains(req.URL.Host, r.HostContains) {
			continue
		}
		if r.PathContains != "" && !strings.Contains(req.URL.Path, r.PathContains) {
			continue
		}
		if idx < r.From || (r.Count > 0 && idx >= r.From+r.Count) {
			continue
		}
		if r.Mode == RTBlackhole && f.healed {
			continue
		}
		hit = r
		break
	}
	var rv RTRule
	var cb func(int, RTRule)
	released := f.released
	if hit != nil {
		f.trips++
		rv = *hit
		cb = f.onTrip
	}
	f.mu.Unlock()
	if hit == nil {
		return f.inner.RoundTrip(req)
	}
	if cb != nil {
		cb(idx, rv)
	}
	switch rv.Mode {
	case RTLatency:
		select {
		case <-time.After(rv.Delay):
		case <-req.Context().Done():
			return nil, fmt.Errorf("fabric: %s %s: %w", req.Method, req.URL, req.Context().Err())
		}
		return f.inner.RoundTrip(req)
	case RTTorn:
		resp, err := f.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return tearResponse(resp, rv.KeepBytes)
	case RTBlackhole:
		select {
		case <-released:
			return f.inner.RoundTrip(req)
		case <-req.Context().Done():
			return nil, fmt.Errorf("fabric: %s %s: %w: %w", req.Method, req.URL, ErrRTBlackhole, req.Context().Err())
		}
	default:
		e := rv.Err
		if e == nil {
			e = ErrRTInjected
		}
		return nil, fmt.Errorf("fabric: %s %s: %w", req.Method, req.URL, e)
	}
}

// tearResponse truncates the response body while leaving the declared
// Content-Length alone, so the client reads a prefix and then hits an
// unexpected EOF — exactly what a connection cut mid-response looks
// like.
func tearResponse(resp *http.Response, keep int) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if keep == 0 {
		keep = len(body) / 2
	}
	if keep < 0 {
		keep = 0
	}
	if keep > len(body) {
		keep = len(body)
	}
	resp.Body = &tornBody{r: bytes.NewReader(body[:keep])}
	return resp, nil
}

type tornBody struct{ r *bytes.Reader }

func (b *tornBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if errors.Is(err, io.EOF) {
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *tornBody) Close() error { return nil }
