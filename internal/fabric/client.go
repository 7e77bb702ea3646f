package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/service"
)

// Client errors.
var (
	// ErrBreakerOpen reports a call refused locally because the
	// worker's circuit breaker is open: the worker has failed enough
	// consecutive calls that hammering it further only wastes lease
	// time. The breaker half-opens after probation.
	ErrBreakerOpen = errors.New("fabric: worker circuit breaker open")
	// ErrNoCheckpoint reports that a job has written no checkpoint yet.
	ErrNoCheckpoint = errors.New("fabric: job has no checkpoint yet")
	// ErrIncompatible reports a worker whose version handshake does not
	// match this coordinator.
	ErrIncompatible = errors.New("fabric: worker version incompatible")
	// errStatus is the retry classifier's wrapper for HTTP-level
	// failures.
	errStatus = errors.New("fabric: http error status")
)

// ClientOptions tunes the retrying worker client and its breaker.
// The zero value selects the documented defaults.
type ClientOptions struct {
	// RetryMax is how many retries follow a failed attempt (so a call
	// issues at most RetryMax+1 requests); zero selects 3, negative
	// disables retries.
	RetryMax int
	// RequestTimeout bounds each individual attempt; zero selects 10s.
	RequestTimeout time.Duration
	// BackoffBase is the first retry's backoff; attempt n waits
	// BackoffBase << n, capped at BackoffMax, each with up to 50%
	// deterministic jitter. Zero selects 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff; zero selects 5s.
	BackoffMax time.Duration
	// JitterSeed seeds the backoff jitter so chaos runs are
	// reproducible; zero selects 1.
	JitterSeed int64
	// BreakerThreshold is how many consecutive request failures open
	// the worker's circuit breaker; zero selects 8, negative disables
	// the breaker.
	BreakerThreshold int
	// Probation is how long an open breaker rejects calls before
	// half-opening for a single probe; zero selects 15s.
	Probation time.Duration
	// Transport is the HTTP transport (the chaos tests inject network
	// faults through it); nil selects http.DefaultTransport.
	Transport http.RoundTripper
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RetryMax == 0 {
		o.RetryMax = 3
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.Probation <= 0 {
		o.Probation = 15 * time.Second
	}
	return o
}

// Client talks to one worker: every call goes through per-attempt
// timeouts, jittered exponential backoff on retryable failures
// (transport errors, 5xx, 429 — honoring Retry-After), and the
// worker's circuit breaker. 4xx responses other than 429 are the
// worker answering coherently, so they never count against it.
type Client struct {
	url  string
	opts ClientOptions
	hc   *http.Client
	brk  breaker

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient builds a client for the worker at base URL (no trailing
// slash required).
func NewClient(base string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	return &Client{
		url:  strings.TrimRight(base, "/"),
		opts: opts,
		hc:   &http.Client{Transport: opts.Transport},
		rng:  rand.New(rand.NewSource(opts.JitterSeed)),
		brk: breaker{
			threshold: opts.BreakerThreshold,
			probation: opts.Probation,
		},
	}
}

// URL reports the worker's base URL.
func (c *Client) URL() string { return c.url }

// Available reports whether the breaker would let a call through right
// now, without consuming the half-open probe. The coordinator's worker
// selection uses it to skip ejected workers.
func (c *Client) Available() bool { return c.brk.available() }

// Ejections reports how many times this worker's breaker has opened.
func (c *Client) Ejections() int64 { return c.brk.ejections() }

// backoff computes the jittered exponential delay before retry n.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + jitter
}

// do runs one API call with retries. A non-nil out receives the
// decoded JSON body; raw callers pass nil and use doRaw instead.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	data, err := c.doRaw(ctx, method, path, in)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("fabric: decode %s %s: %w", method, path, err)
	}
	return nil
}

// doRaw is the retry loop. It returns the response body bytes of the
// first successful attempt.
func (c *Client) doRaw(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, fmt.Errorf("fabric: encode %s %s: %w", method, path, err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.brk.allow(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return nil, err
		}
		data, retryable, retryAfter, err := c.attempt(ctx, method, path, body)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retryable || attempt >= c.opts.RetryMax || ctx.Err() != nil {
			return nil, lastErr
		}
		wait := c.backoff(attempt)
		if retryAfter > wait {
			wait = retryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, fmt.Errorf("fabric: %s %s: %w (last failure: %v)", method, path, ctx.Err(), lastErr)
		}
	}
}

// attempt issues one HTTP request and classifies the outcome: success,
// a clean API error (not retryable, not the worker's fault), or a
// worker/transport failure (retryable, feeds the breaker).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (data []byte, retryable bool, retryAfter time.Duration, err error) {
	rctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.url+path, rd)
	if err != nil {
		return nil, false, 0, fmt.Errorf("fabric: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.brk.failure()
		return nil, true, 0, fmt.Errorf("fabric: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		// A torn response body is a transport failure even though the
		// status arrived intact.
		c.brk.failure()
		return nil, true, 0, fmt.Errorf("fabric: %s %s: read response: %w", method, path, err)
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		c.brk.success()
		return data, false, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// The worker is alive and protecting itself; honor its stated
		// backoff without penalizing it.
		c.brk.success()
		after := time.Duration(0)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return nil, true, after, fmt.Errorf("fabric: %s %s: %w %d: %s", method, path, errStatus, resp.StatusCode, strings.TrimSpace(string(data)))
	case resp.StatusCode >= 500:
		c.brk.failure()
		return nil, true, 0, fmt.Errorf("fabric: %s %s: %w %d: %s", method, path, errStatus, resp.StatusCode, strings.TrimSpace(string(data)))
	default:
		// A coherent 4xx: the worker is healthy, the request is wrong
		// (or the resource is absent). Not retryable.
		c.brk.success()
		return nil, false, 0, fmt.Errorf("fabric: %s %s: %w %d: %s", method, path, errStatus, resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

// statusCodeOf extracts the HTTP status from an errStatus error chain,
// or 0.
func statusCodeOf(err error) int {
	if err == nil || !errors.Is(err, errStatus) {
		return 0
	}
	msg := err.Error()
	k := strings.Index(msg, errStatus.Error())
	if k < 0 {
		return 0
	}
	rest := strings.TrimSpace(msg[k+len(errStatus.Error()):])
	if len(rest) < 3 {
		return 0
	}
	code, err2 := strconv.Atoi(rest[:3])
	if err2 != nil {
		return 0
	}
	return code
}

// Version performs the handshake.
func (c *Client) Version(ctx context.Context) (service.VersionInfo, error) {
	var v service.VersionInfo
	err := c.do(ctx, http.MethodGet, "/version", nil, &v)
	return v, err
}

// Ready probes readiness. A 503 is a coherent "not ready", not an
// error; transport failures still surface as errors.
func (c *Client) Ready(ctx context.Context) (service.ReadyStatus, error) {
	var st service.ReadyStatus
	err := c.do(ctx, http.MethodGet, "/readyz", nil, &st)
	if err != nil && statusCodeOf(err) == http.StatusServiceUnavailable {
		return service.ReadyStatus{Ready: false}, nil
	}
	return st, err
}

// Submit submits a job and returns its id.
func (c *Client) Submit(ctx context.Context, spec service.Spec) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(ctx, http.MethodPost, "/jobs", spec, &out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("fabric: worker %s returned an empty job id", c.url)
	}
	return out.ID, nil
}

// Status fetches one job's status snapshot.
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Cancel requests cancellation of a job. Best-effort callers ignore
// the error.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, nil)
}

// Checkpoint fetches the job's newest durable checkpoint bytes.
// ErrNoCheckpoint means the job has not checkpointed yet.
func (c *Client) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	data, err := c.doRaw(ctx, http.MethodGet, "/jobs/"+id+"/checkpoint", nil)
	if err != nil {
		if statusCodeOf(err) == http.StatusNotFound {
			return nil, ErrNoCheckpoint
		}
		return nil, err
	}
	return data, nil
}

// ShardResult fetches and decodes the merge-ready result of a done
// shard job.
func (c *Client) ShardResult(ctx context.Context, id string) (*campaign.Result, error) {
	data, err := c.doRaw(ctx, http.MethodGet, "/jobs/"+id+"/shard-result", nil)
	if err != nil {
		return nil, err
	}
	return campaign.DecodeResult(data)
}

// breaker is a per-worker circuit breaker: consecutive failures past
// the threshold open it, an open breaker rejects calls until probation
// elapses, then a single half-open probe decides — success closes it,
// failure re-opens for another probation.
type breaker struct {
	threshold int
	probation time.Duration

	mu       sync.Mutex
	failures int
	open     bool
	until    time.Time
	probing  bool
	ejects   int64
	onEject  func()
}

func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil
	}
	if time.Now().Before(b.until) {
		return ErrBreakerOpen
	}
	// Probation over: admit exactly one probe at a time.
	if b.probing {
		return ErrBreakerOpen
	}
	b.probing = true
	return nil
}

func (b *breaker) available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	return !time.Now().Before(b.until) && !b.probing
}

func (b *breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.open = false
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) failure() {
	b.mu.Lock()
	b.failures++
	wasOpen := b.open
	var eject func()
	if b.threshold > 0 && b.failures >= b.threshold {
		b.open = true
		b.until = time.Now().Add(b.probation)
		b.probing = false
		if !wasOpen {
			b.ejects++
			eject = b.onEject
		}
	}
	b.mu.Unlock()
	if eject != nil {
		eject()
	}
}

func (b *breaker) ejections() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ejects
}
