package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// hashSeed keys every body digest of one benchmark process: expected
// answers and received bodies are hashed with it and compared as 64-bit
// sums, so no response body is ever buffered.
var hashSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// conn is one persistent HTTP/1.1 connection to andord. Requests are
// pre-rendered wire bytes; responses are parsed with http.ReadResponse and
// their bodies hashed as they stream in, never buffered whole.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	h    maphash.Hash
	buf  []byte
}

func newConn(addr string) *conn {
	c := &conn{addr: addr, buf: make([]byte, 32<<10)}
	c.h.SetSeed(hashSeed)
	return c
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// reply is what the benchmark keeps of one response.
type reply struct {
	status  int
	sum     uint64
	traceID string
}

// do sends one request and reads the whole response. A transport error
// drops the connection; the next call redials.
func (c *conn) do(wire []byte, wantTrace bool) (reply, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return reply{}, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 64<<10)
	}
	if _, err := c.c.Write(wire); err != nil {
		c.close()
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return reply{}, err
	}
	c.h.Reset()
	_, err = io.CopyBuffer(&c.h, resp.Body, c.buf)
	resp.Body.Close()
	if err != nil {
		c.close()
		return reply{}, err
	}
	rep := reply{status: resp.StatusCode, sum: c.h.Sum64()}
	if wantTrace {
		rep.traceID = resp.Header.Get("X-Trace-Id")
	}
	if resp.Close {
		c.close()
	}
	return rep, nil
}

// pacer sleeps a sender goroutine until a request is due. Go's own timers
// fire up to ~1ms late on sub-millisecond sleeps on Linux, which would put
// the generator's lateness into every measured latency. A timerfd read
// through the runtime's netpoller wakes within tens of microseconds and,
// unlike a blocking nanosleep, holds no scheduler P while it waits.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns once t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	for {
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		if _, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
			return fmt.Errorf("timerfd_settime: %w", e)
		}
		if _, err := p.f.Read(p.buf[:]); err != nil {
			return err
		}
	}
}

func (p *pacer) close() { p.f.Close() }

// loopResult is the outcome of one load phase.
type loopResult struct {
	lat       []int64 // per request, in due order for an open loop: from due (open loop) or send (closed loop), ns; failures are MaxInt64
	rtt       []int64 // per successful request: send to last body byte, ns
	late      []int64 // open loop: how late the generator woke for a request it had to wait for, ns
	attempted int
	failed    int
	runs      int64         // serve.runs the successful requests are worth
	elapsed   time.Duration // first due (or start) to last completion
	tailLag   time.Duration // open loop: mean send delay behind schedule over the last tenth of requests
	tailN     int
	traces    map[string]int64 // trace ID → RTT ns, when traced
	failures  []string         // first few failure descriptions
}

func (r *loopResult) merge(o *loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.rtt = append(r.rtt, o.rtt...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.runs += o.runs
	r.tailLag += o.tailLag
	r.tailN += o.tailN
	if o.traces != nil {
		if r.traces == nil {
			r.traces = map[string]int64{}
		}
		for k, v := range o.traces {
			r.traces[k] = v
		}
	}
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *loopResult) meanRTTus() float64 {
	if len(r.rtt) == 0 {
		return 0
	}
	var s float64
	for _, v := range r.rtt {
		s += float64(v)
	}
	return s / float64(len(r.rtt)) / 1e3
}

// record books one request's outcome into a sender-local result and
// returns the latency it booked.
func (r *loopResult) record(q *request, rep reply, err error, lat, rtt int64) int64 {
	r.attempted++
	ok := err == nil && rep.status == http.StatusOK && rep.sum == q.expect && !q.violates
	if !ok {
		r.failed++
		r.lat = append(r.lat, math.MaxInt64)
		if len(r.failures) < 8 {
			switch {
			case err != nil:
				r.failures = append(r.failures, q.path+": "+err.Error())
			case rep.status != http.StatusOK:
				r.failures = append(r.failures, q.path+": status "+http.StatusText(rep.status))
			case q.violates:
				r.failures = append(r.failures, q.path+": in-process answer violates Theorem 1")
			default:
				r.failures = append(r.failures, q.path+": answer differs from the in-process re-derivation: "+string(q.body))
			}
		}
		return math.MaxInt64
	}
	r.lat = append(r.lat, lat)
	r.rtt = append(r.rtt, rtt)
	r.runs += q.credit
	if rep.traceID != "" {
		if r.traces == nil {
			r.traces = map[string]int64{}
		}
		r.traces[rep.traceID] = rtt
	}
	return lat
}

// senders is the client's connection count: one per CPU, the load limit of
// a single client process.
var senders = runtime.NumCPU()

// openLoop offers requests first, first+1, ... of the cycle at a fixed rate
// for dur, from `senders` connections. Each request is timed from when it
// was due, not from when a connection became free, so a stall delays and
// is charged to every request scheduled behind it.
func openLoop(addr string, cycle []*request, first int, rate float64, dur time.Duration, traced bool) *loopResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var lastDone atomic.Int64
	byDue := make([]int64, n) // latency of request i; each index is written by one sender
	parts := make([]*loopResult, senders)
	var wg sync.WaitGroup
	for s := range parts {
		parts[s] = &loopResult{}
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			p, err := newPacer()
			if err != nil {
				res.record(cycle[0], reply{}, err, 0, 0)
				return
			}
			defer p.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				q := cycle[(first+i)%len(cycle)]
				due := start.Add(time.Duration(float64(i) * 1e9 / rate))
				if time.Now().Before(due) {
					if err := p.sleepUntil(due); err != nil {
						byDue[i] = res.record(q, reply{}, err, 0, 0)
						continue
					}
					res.late = append(res.late, int64(time.Since(due)))
				}
				sent := time.Now()
				if i >= n-n/10 {
					res.tailLag += sent.Sub(due)
					res.tailN++
				}
				rep, err := c.do(q.wire, traced)
				done := time.Now()
				byDue[i] = res.record(q, rep, err, int64(done.Sub(due)), int64(done.Sub(sent)))
				for {
					old := lastDone.Load()
					if done.UnixNano() <= old || lastDone.CompareAndSwap(old, done.UnixNano()) {
						break
					}
				}
			}
		}(parts[s])
	}
	wg.Wait()
	out := &loopResult{}
	for _, p := range parts {
		out.merge(p)
	}
	out.lat = byDue
	if out.tailN > 0 {
		out.tailLag /= time.Duration(out.tailN)
	}
	out.elapsed = time.Unix(0, lastDone.Load()).Sub(start)
	return out
}

// closedLoop runs `senders` clients that each send their next request only
// after the previous answer arrived, for dur. Requests are timed from send.
func closedLoop(addr string, cycle []*request, first int, dur time.Duration, traced bool) *loopResult {
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	parts := make([]*loopResult, senders)
	var wg sync.WaitGroup
	for s := range parts {
		parts[s] = &loopResult{}
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for time.Now().Before(end) {
				i := int(next.Add(1)) - 1
				q := cycle[(first+i)%len(cycle)]
				sent := time.Now()
				rep, err := c.do(q.wire, traced)
				d := int64(time.Since(sent))
				res.record(q, rep, err, d, d)
			}
		}(parts[s])
	}
	wg.Wait()
	out := &loopResult{}
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// sendAll sends every request once, closed-loop over `senders`
// connections, and books the outcomes (used to warm caches in set-up).
func sendAll(addr string, reqs []*request) *loopResult {
	var next atomic.Int64
	parts := make([]*loopResult, senders)
	var wg sync.WaitGroup
	for s := range parts {
		parts[s] = &loopResult{}
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				sent := time.Now()
				rep, err := c.do(reqs[i].wire, false)
				d := int64(time.Since(sent))
				res.record(reqs[i], rep, err, d, d)
			}
		}(parts[s])
	}
	wg.Wait()
	out := &loopResult{}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}
