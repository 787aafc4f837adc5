package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(2, 4, 16)
	defer p.Close()
	var mu sync.Mutex
	seen := 0
	for i := 0; i < 10; i++ {
		err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
			if w.Arena == nil || w.Src == nil || w.Sampler == nil {
				t.Error("worker state not initialized")
			}
			mu.Lock()
			seen++
			mu.Unlock()
		}, nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if seen != 10 {
		t.Fatalf("ran %d jobs, want 10", seen)
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1, 16)
	defer p.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	// Occupy the single worker...
	go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
		close(running)
		<-block
	}, nil)
	<-running
	// ...and the single queue slot.
	queued := make(chan error, 1)
	go func() {
		queued <- p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil)
	}()
	// Wait until the queue slot is actually taken.
	deadline := time.Now().Add(2 * time.Second)
	for p.InFlight() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued job never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// Now the pool is saturated: submissions must fail fast.
	if err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	close(block)
	if err := <-queued; err != nil {
		t.Fatalf("queued job failed: %v", err)
	}
}

func TestPoolSkipsExpiredQueuedJobs(t *testing.T) {
	p := NewPool(1, 4, 16)
	defer p.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
		close(running)
		<-block
	}, nil)
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	errc := make(chan error, 1)
	go func() {
		errc <- p.submit(ctx, anyWorker, false, 1, func(ctx context.Context, w *Worker) { ran = true }, nil)
	}()
	for p.InFlight() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel() // the queued job's request gives up
	close(block)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if ran {
		t.Error("expired job still ran")
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(2, 4, 16)
	done := false
	if err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) { done = true }, nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if !done {
		t.Error("job did not complete before Close returned")
	}
	if err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err after close %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolCloseDrainsQueued(t *testing.T) {
	p := NewPool(1, 8, 16)
	block := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
		close(running)
		<-block
	}, nil)
	<-running

	var mu sync.Mutex
	completed := 0
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
				mu.Lock()
				completed++
				mu.Unlock()
			}, nil)
			if err != nil {
				t.Errorf("queued job rejected during drain: %v", err)
			}
		}()
	}
	for p.InFlight() < 6 {
		time.Sleep(time.Millisecond)
	}
	close(block)
	p.Close() // must wait for all queued jobs
	wg.Wait()
	if completed != 5 {
		t.Fatalf("%d queued jobs completed across Close, want 5", completed)
	}
}

// TestPoolCancelMidQueue is the ISSUE's admission-audit regression test:
// a request cancelled between enqueue and worker pickup must not execute
// and must settle the in-flight accounting exactly once. Run under -race
// with many concurrent submitters and a saturated pool.
func TestPoolCancelMidQueue(t *testing.T) {
	p := NewPool(2, 32, 16)
	defer p.Close()

	block := make(chan struct{})
	occupied := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
			occupied <- struct{}{}
			<-block
		}, nil)
	}
	<-occupied
	<-occupied

	const n = 64
	type result struct {
		err  error
		runs int32 // how many times this job's fn executed
	}
	results := make([]result, n)
	cancels := make([]context.CancelFunc, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			runs := &results[i].runs
			results[i].err = p.submit(ctx, anyWorker, false, 1, func(ctx context.Context, w *Worker) {
				atomic.AddInt32(runs, 1)
			}, nil)
		}(i, ctx)
	}
	// Cancel every other job while the pool is still blocked, so the
	// cancellations land strictly between enqueue and pickup (for the jobs
	// that made it into the queue) or before submission.
	for i := 0; i < n; i += 2 {
		cancels[i]()
	}
	close(block)
	wg.Wait()
	for i := range cancels {
		cancels[i]()
	}

	for i := range results {
		r := &results[i]
		runs := atomic.LoadInt32(&r.runs)
		switch {
		case r.err == nil:
			if runs != 1 {
				t.Errorf("job %d: nil error but fn ran %d times, want exactly 1", i, runs)
			}
		case errors.Is(r.err, context.Canceled):
			if runs != 0 {
				t.Errorf("job %d: cancelled while queued but fn ran %d times", i, runs)
			}
		case errors.Is(r.err, ErrQueueFull):
			if runs != 0 {
				t.Errorf("job %d: rejected but fn ran %d times", i, runs)
			}
		default:
			t.Errorf("job %d: unexpected error %v", i, r.err)
		}
	}
	// Every path — ran, skipped, rejected — must settle the in-flight
	// count exactly once.
	deadline := time.Now().Add(2 * time.Second)
	for p.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count settled at %d, want 0", p.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolDoWaitBlocksForSpace: a waiting submit must ride out a full
// queue instead of failing fast, and still respect cancellation while
// blocked.
func TestPoolDoWaitBlocksForSpace(t *testing.T) {
	p := NewPool(1, 1, 16)
	defer p.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
		close(running)
		<-block
	}, nil)
	<-running
	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		queued <- p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil)
	}()
	for p.InFlight() < 2 {
		time.Sleep(time.Millisecond)
	}

	// A fail-fast submit fails; a waiting one blocks until the queue
	// drains, then runs.
	if err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fail-fast submit on full queue: %v, want ErrQueueFull", err)
	}
	ran := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		waited <- p.submit(context.Background(), anyWorker, true, 1, func(ctx context.Context, w *Worker) { close(ran) }, nil)
	}()
	select {
	case err := <-waited:
		t.Fatalf("waiting submit returned %v while the queue was still full", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	if err := <-waited; err != nil {
		t.Fatalf("waiting submit: %v", err)
	}
	<-ran
	if err := <-queued; err != nil {
		t.Fatalf("queued submit: %v", err)
	}

	// A waiting submit blocked on a full queue honors cancellation.
	block2 := make(chan struct{})
	running2 := make(chan struct{})
	go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
		close(running2)
		<-block2
	}, nil)
	<-running2
	filler := make(chan error, 1)
	go func() {
		filler <- p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil)
	}()
	for p.InFlight() < 2 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		waitErr <- p.submit(ctx, anyWorker, true, 1, func(ctx context.Context, w *Worker) {
			t.Error("cancelled waiting submit executed")
		}, nil)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiting submit: %v, want context.Canceled", err)
	}
	close(block2)
	if err := <-filler; err != nil {
		t.Fatalf("filler job: %v", err)
	}
}

// TestPoolRetryAfter pins the drain-rate estimator's contract: a fresh
// pool (no observations) and an empty queue both advise the 1s floor, and
// the estimate is a positive bounded duration once jobs have completed.
func TestPoolRetryAfter(t *testing.T) {
	p := NewPool(1, 4, 16)
	defer p.Close()
	if got := p.RetryAfter(); got != time.Second {
		t.Errorf("fresh pool RetryAfter %v, want the 1s fallback", got)
	}
	for i := 0; i < 8; i++ {
		if err := p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
			time.Sleep(200 * time.Microsecond)
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Queue empty again: still the floor.
	if got := p.RetryAfter(); got != time.Second {
		t.Errorf("idle pool RetryAfter %v, want 1s", got)
	}

	// Saturate: with a known ~5ms service EWMA and a non-empty queue the
	// estimate must stay within [1s, 60s] and scale with depth.
	block := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {
		close(running)
		<-block
	}, nil)
	<-running
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, w *Worker) {}, nil)
		}()
	}
	for p.InFlight() < 5 {
		time.Sleep(time.Millisecond)
	}
	got := p.RetryAfter()
	if got < time.Second || got > 60*time.Second {
		t.Errorf("saturated RetryAfter %v outside [1s, 60s]", got)
	}
	close(block)
	wg.Wait()
}
