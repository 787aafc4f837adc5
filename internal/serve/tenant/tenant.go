// Package tenant implements per-client admission control for the serving
// layer: token-bucket rate limiting, concurrency quotas and run-count
// budgets, keyed by an API-key header or the client's remote IP. The
// scheduler's run-time policies (GSS slack sharing, the paper's on-line
// phase) assume the work they arbitrate was admitted fairly; without
// per-tenant admission one noisy load generator starves every other
// client behind a single global 429 queue. The limiter sits in front of
// the worker pool: an over-quota request is rejected before it costs a
// compile or a queue slot, with a Retry-After computed exactly from the
// bucket's refill schedule rather than a constant.
//
// Design notes:
//
//   - Every tenant holds two token buckets — one denominated in requests,
//     one in simulation runs — plus an in-flight counter. A request is
//     admitted only when all three constraints pass; nothing is deducted
//     on rejection, so a rejected burst does not push the retry horizon
//     further out.
//   - State is bounded: at most MaxTenants tenants are tracked, evicting
//     the least-recently-seen. Eviction forgets bucket debt, which is the
//     safe direction (a returning tenant starts with a full bucket).
//   - The limiter is a single mutex around a map + intrusive LRU list.
//     Admission is a few float operations; the serving layer's request
//     rate (~10k/s) is far below the point where the lock matters.
package tenant

import (
	"container/list"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// Config parameterizes a Limiter. The zero value disables admission
// control entirely (New returns nil); set Enabled to activate it with the
// documented defaults.
type Config struct {
	// Enabled activates per-tenant admission control.
	Enabled bool
	// KeyHeader names the header whose value identifies the tenant
	// (default "X-API-Key"). Requests without the header fall back to the
	// remote IP. Set ByIPOnly to ignore headers entirely.
	KeyHeader string
	// ByIPOnly keys every request by remote IP, ignoring KeyHeader —
	// useful when the service fronts untrusted clients that could forge
	// arbitrary header values to escape their bucket.
	ByIPOnly bool
	// RequestsPerSec is each tenant's sustained request rate (default 100).
	RequestsPerSec float64
	// Burst is the request bucket's capacity (default RequestsPerSec,
	// floored at 1): the largest instantaneous burst a tenant may send.
	Burst float64
	// MaxInflight caps a tenant's concurrently admitted requests
	// (0 = unlimited).
	MaxInflight int
	// RunsPerSec is each tenant's sustained simulation-run budget
	// (0 = unlimited). A request asking for N Monte-Carlo runs consumes N
	// run tokens at admission, so one tenant cannot monopolize the workers
	// with a few huge requests while staying under its request rate.
	RunsPerSec float64
	// RunBurst is the run bucket's capacity (default 10×RunsPerSec).
	RunBurst float64
	// MaxTenants bounds the tracked-tenant map (default 1024); beyond it
	// the least-recently-seen tenant is forgotten.
	MaxTenants int
}

func (c Config) withDefaults() Config {
	if c.KeyHeader == "" {
		c.KeyHeader = "X-API-Key"
	}
	if c.RequestsPerSec <= 0 {
		c.RequestsPerSec = 100
	}
	if c.Burst <= 0 {
		c.Burst = math.Max(c.RequestsPerSec, 1)
	}
	if c.RunsPerSec > 0 && c.RunBurst <= 0 {
		c.RunBurst = 10 * c.RunsPerSec
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	return c
}

// Decision reports one admission attempt's outcome.
type Decision struct {
	// OK means the request was admitted; the caller must call the
	// accompanying release exactly once when the request finishes.
	OK bool
	// Tenant is the resolved tenant key the decision applied to.
	Tenant string
	// RetryAfter is the exact wait until the rejecting constraint could
	// pass, computed from the bucket refill schedule (zero when OK, one
	// second when the constraint has no schedule, i.e. a concurrency cap).
	RetryAfter time.Duration
	// Reason is a client-facing explanation of a rejection.
	Reason string
	// Never marks an ask no amount of waiting satisfies (a run count
	// larger than the whole run bucket); callers should answer 400, not
	// 429.
	Never bool
}

// state is one tenant's admission state. Buckets are refilled lazily on
// access from the elapsed wall-clock time.
type state struct {
	key       string
	elem      *list.Element
	last      time.Time // last refill
	reqTokens float64
	runTokens float64
	inflight  int

	admitted int64
	rejected int64
	runs     int64 // run tokens charged by admitted requests
}

// Limiter applies per-tenant admission control. A nil *Limiter admits
// everything (all methods are nil-safe), so callers can hold one pointer
// regardless of configuration.
type Limiter struct {
	cfg Config
	now func() time.Time // injected for tests

	mu      sync.Mutex
	tenants map[string]*state
	lru     *list.List // front = most recently seen
}

// New returns a Limiter for cfg, or nil when cfg.Enabled is false.
func New(cfg Config) *Limiter {
	if !cfg.Enabled {
		return nil
	}
	return &Limiter{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		tenants: make(map[string]*state),
		lru:     list.New(),
	}
}

// KeyFromRequest resolves the tenant key of an HTTP request: the
// configured API-key header when present (and not ByIPOnly), else the
// remote IP. Keys are prefixed by their origin ("key:", "ip:") so an
// API key that happens to look like an address cannot collide with one.
func (l *Limiter) KeyFromRequest(r *http.Request) string {
	if l == nil {
		return ""
	}
	if !l.cfg.ByIPOnly {
		if v := r.Header.Get(l.cfg.KeyHeader); v != "" {
			return "key:" + v
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "ip:" + host
}

// Admit decides whether a request consuming runs simulation runs may
// proceed. On admission it returns release, which the caller must invoke
// exactly once when the request completes (it decrements the tenant's
// in-flight count); release is idempotent. On rejection release is nil
// and the Decision carries the retry schedule.
func (l *Limiter) Admit(key string, runs int) (Decision, func()) {
	if l == nil {
		return Decision{OK: true, Tenant: key}, func() {}
	}
	if runs < 0 {
		runs = 0
	}
	now := l.now()

	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.tenant(key, now)
	l.refill(st, now)

	// A run ask exceeding the whole bucket can never be admitted: waiting
	// only refills up to RunBurst.
	if l.cfg.RunsPerSec > 0 && float64(runs) > l.cfg.RunBurst {
		st.rejected++
		return Decision{
			Tenant: key, Never: true,
			Reason: fmt.Sprintf("request asks for %d runs, tenant run burst is %g", runs, l.cfg.RunBurst),
		}, nil
	}
	if l.cfg.MaxInflight > 0 && st.inflight >= l.cfg.MaxInflight {
		st.rejected++
		// Concurrency has no refill schedule; the caller falls back to its
		// drain-rate estimate (or 1s).
		return Decision{
			Tenant: key, RetryAfter: time.Second,
			Reason: fmt.Sprintf("tenant concurrency quota (%d in flight) exhausted", l.cfg.MaxInflight),
		}, nil
	}
	var wait time.Duration
	if st.reqTokens < 1 {
		wait = tokenWait(1-st.reqTokens, l.cfg.RequestsPerSec)
	}
	if l.cfg.RunsPerSec > 0 && st.runTokens < float64(runs) {
		if w := tokenWait(float64(runs)-st.runTokens, l.cfg.RunsPerSec); w > wait {
			wait = w
		}
	}
	if wait > 0 {
		st.rejected++
		return Decision{
			Tenant: key, RetryAfter: wait,
			Reason: "tenant rate limit exceeded, retry later",
		}, nil
	}

	st.reqTokens--
	if l.cfg.RunsPerSec > 0 {
		st.runTokens -= float64(runs)
	}
	st.inflight++
	st.admitted++
	st.runs += int64(runs)
	released := false
	release := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if !released {
			released = true
			st.inflight--
		}
	}
	return Decision{OK: true, Tenant: key}, release
}

// tokenWait is the exact time a bucket refilling at rate tokens/s needs
// to cover a deficit.
func tokenWait(deficit, rate float64) time.Duration {
	return time.Duration(math.Ceil(deficit / rate * 1e9))
}

// tenant returns key's state, creating it (and evicting the
// least-recently-seen tenant beyond MaxTenants) as needed. Callers hold
// l.mu.
func (l *Limiter) tenant(key string, now time.Time) *state {
	if st, ok := l.tenants[key]; ok {
		l.lru.MoveToFront(st.elem)
		return st
	}
	if len(l.tenants) >= l.cfg.MaxTenants {
		oldest := l.lru.Back()
		victim := oldest.Value.(*state)
		l.lru.Remove(oldest)
		delete(l.tenants, victim.key)
	}
	st := &state{
		key:       key,
		last:      now,
		reqTokens: l.cfg.Burst,
		runTokens: l.cfg.RunBurst,
	}
	st.elem = l.lru.PushFront(st)
	l.tenants[key] = st
	return st
}

// refill tops up st's buckets for the time elapsed since the last refill.
// Callers hold l.mu.
func (l *Limiter) refill(st *state, now time.Time) {
	dt := now.Sub(st.last).Seconds()
	if dt <= 0 {
		return
	}
	st.last = now
	st.reqTokens = math.Min(l.cfg.Burst, st.reqTokens+dt*l.cfg.RequestsPerSec)
	if l.cfg.RunsPerSec > 0 {
		st.runTokens = math.Min(l.cfg.RunBurst, st.runTokens+dt*l.cfg.RunsPerSec)
	}
}

// Stats is one tenant's counters as of a Snapshot.
type Stats struct {
	// Tenant is the prefixed tenant key ("key:..." or "ip:...").
	Tenant string
	// Admitted and Rejected count admission decisions; Runs totals the run
	// tokens charged by admitted requests; Inflight is the current
	// concurrency.
	Admitted, Rejected, Runs int64
	Inflight                 int
}

// Snapshot returns every tracked tenant's counters, most recently seen
// first. Evicted tenants are absent (their counters are forgotten with
// their buckets).
func (l *Limiter) Snapshot() []Stats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Stats, 0, len(l.tenants))
	for e := l.lru.Front(); e != nil; e = e.Next() {
		st := e.Value.(*state)
		out = append(out, Stats{
			Tenant: st.key, Admitted: st.admitted, Rejected: st.rejected,
			Runs: st.runs, Inflight: st.inflight,
		})
	}
	return out
}

// Len reports the number of tracked tenants.
func (l *Limiter) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tenants)
}
