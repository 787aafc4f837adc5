package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := Traceparent(tid, sid)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed traceparent %q", h)
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v, want %v %v true", h, gotT, gotS, ok, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := Traceparent(NewTraceID(), NewSpanID())
	for name, h := range map[string]string{
		"empty":         "",
		"short":         valid[:54],
		"version-ff":    "ff" + valid[2:],
		"zero-trace-id": "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"bad-hex":       "00-zz0af7651916cd43dd8448eb211c80319-00f067aa0ba902b7-01",
		"no-dash":       strings.Replace(valid, "-", "_", 1),
	} {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, h)
		}
	}
	// Trailing version-specific fields after the flags are tolerated.
	if _, _, ok := ParseTraceparent(valid + "-extrafield"); !ok {
		t.Error("traceparent with trailing fields rejected")
	}
}

func TestTraceRecNilSafe(t *testing.T) {
	var r *TraceRec
	if r.ID() != "" || r.Endpoint() != "" {
		t.Error("nil TraceRec has identity")
	}
	if !r.Now().IsZero() {
		t.Error("nil TraceRec.Now() is not the zero time")
	}
	r.Record("x", time.Now(), "d")
	r.Mark("x", "d")
	r.RecordOffset("x", r.SinceStart(), 3)
	r.RecordSpan("x", time.Now(), time.Now())
	r.VisitSpans(func(string, time.Duration, time.Duration, string, int64) {
		t.Error("nil TraceRec visited a span")
	})
	if ctx := ContextWithTrace(context.Background(), nil); TraceFromContext(ctx) != nil {
		t.Error("nil rec stored in context")
	}
	var f *Flight
	if f.Start("ep", "", time.Now()) != nil {
		t.Error("nil Flight started a record")
	}
	f.Finish(nil, 200)
	if _, ok := f.Get(strings.Repeat("a", 32)); ok {
		t.Error("nil Flight returned a trace")
	}
	if f.Recent(10) != nil || f.Slowest() != nil || f.Len() != 0 {
		t.Error("nil Flight has state")
	}
}

func TestRecordVisitAndOverflow(t *testing.T) {
	f := NewFlight(4, 2)
	base := time.Now()
	r := f.Start("/v1/run", "", base)
	for i := 0; i < maxTraceSpans+5; i++ {
		r.RecordOffset("phase", 0, int64(i))
	}
	var n int
	r.VisitSpans(func(phase string, start, dur time.Duration, detail string, cnt int64) {
		if phase != "phase" || cnt != int64(n) {
			t.Errorf("span %d: phase=%q n=%d", n, phase, cnt)
		}
		n++
	})
	if n != maxTraceSpans {
		t.Fatalf("visited %d spans, want %d", n, maxTraceSpans)
	}
	f.Finish(r, 200)
	rt, ok := f.Get(r.ID())
	if !ok {
		t.Fatal("finished trace not retrievable")
	}
	if len(rt.Spans) != maxTraceSpans || rt.DroppedSpans != 5 {
		t.Fatalf("snapshot has %d spans, %d dropped; want %d and 5",
			len(rt.Spans), rt.DroppedSpans, maxTraceSpans)
	}
}

func TestFlightInboundTraceparent(t *testing.T) {
	f := NewFlight(4, 2)
	tid, sid := NewTraceID(), NewSpanID()
	r := f.Start("/v1/plan", Traceparent(tid, sid), time.Now())
	if r.ID() != tid.String() {
		t.Fatalf("inbound trace ID not adopted: got %s want %s", r.ID(), tid)
	}
	f.Finish(r, 200)
	rt, ok := f.Get(tid.String())
	if !ok {
		t.Fatal("trace not retrievable by inbound ID")
	}
	if rt.ParentSpan != sid.String() || rt.Endpoint != "/v1/plan" || rt.Status != 200 {
		t.Fatalf("snapshot = %+v", rt)
	}

	// A garbage traceparent falls back to a fresh ID.
	r2 := f.Start("/v1/plan", "not-a-traceparent", time.Now())
	if len(r2.ID()) != 32 || r2.ID() == tid.String() {
		t.Fatalf("fallback ID %q", r2.ID())
	}
	f.Finish(r2, 200)
}

func TestFlightRingEvictionAndSlowestRetention(t *testing.T) {
	f := NewFlight(2, 1)

	// A very slow request, then enough fast ones to evict it from the ring.
	slow := f.Start("/v1/run", "", time.Now().Add(-10*time.Second))
	slowID := slow.ID()
	f.Finish(slow, 200)
	var fastIDs []string
	for i := 0; i < 4; i++ {
		r := f.Start("/v1/run", "", time.Now().Add(-time.Millisecond))
		fastIDs = append(fastIDs, r.ID())
		f.Finish(r, 200)
	}

	// The slow trace left the ring but the slowest-per-endpoint list still
	// holds it.
	if _, ok := f.Get(slowID); !ok {
		t.Fatal("slowest trace evicted despite retention list")
	}
	sl := f.Slowest()["/v1/run"]
	if len(sl) != 1 || sl[0].TraceID != slowID {
		t.Fatalf("Slowest() = %+v, want the slow trace", sl)
	}

	// The ring holds the two newest fast traces, newest first; older fast
	// traces are fully released.
	rec := f.Recent(0)
	if len(rec) != 2 || rec[0].TraceID != fastIDs[3] || rec[1].TraceID != fastIDs[2] {
		t.Fatalf("Recent() = %+v, want fast traces 3,2", rec)
	}
	if _, ok := f.Get(fastIDs[0]); ok {
		t.Error("fully evicted trace still retrievable")
	}
	if f.Len() != 2 {
		t.Errorf("Len() = %d, want 2", f.Len())
	}
}

func TestFlightConcurrentRecording(t *testing.T) {
	f := NewFlight(8, 2)
	r := f.Start("/v1/batch", "", time.Now())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				t0 := r.SinceStart()
				r.RecordOffset("exec.mc", t0, 100)
			}
		}()
	}
	wg.Wait()
	f.Finish(r, 200)
	rt, ok := f.Get(r.ID())
	if !ok {
		t.Fatal("trace not retrievable")
	}
	if len(rt.Spans) != 32 {
		t.Fatalf("got %d spans, want 32", len(rt.Spans))
	}
	for _, sp := range rt.Spans {
		if sp.Phase != "exec.mc" || sp.N != 100 {
			t.Fatalf("bad span %+v", sp)
		}
	}
}
