package sim

import (
	"math/rand"
	"testing"
)

// pushLinear is the pre-optimization reference insertion: scan for the
// first queued task the new one must precede. The binary-search push must
// land every task in exactly this position.
func pushLinear(rq *readyQueue, ti int) {
	t := rq.tasks[ti]
	pos := len(rq.pq)
	for i := rq.pqHead; i < len(rq.pq); i++ {
		o := rq.tasks[rq.pq[i]]
		if t.WorkW > o.WorkW || (t.WorkW == o.WorkW && t.Node < o.Node) {
			pos = i
			break
		}
	}
	rq.pq = append(rq.pq, 0)
	copy(rq.pq[pos+1:], rq.pq[pos:])
	rq.pq[pos] = ti
}

// TestReadyQueuePushMatchesLinear drives two ByPriority queues through
// identical random push/pop interleavings — with heavy WorkW ties so the
// node-ID tie-break and the after-equals insertion rule are both exercised —
// and requires identical queue contents at every step. This is the
// differential proof that sort.Search insertion preserves the engine's
// dispatch order exactly.
func TestReadyQueuePushMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		tasks := make([]*Task, n)
		for i := range tasks {
			// Few distinct work values → many ties; a few duplicated node
			// IDs would be invalid input, so IDs stay unique but arrive in
			// random order.
			tasks[i] = &Task{Node: i, WorkW: float64(1 + rng.Intn(4))}
		}
		perm := rng.Perm(n)

		var got, want readyQueue
		got.reset(tasks)
		want.reset(tasks)
		for _, ti := range perm {
			got.push(ti)
			pushLinear(&want, ti)
			// Interleave pops to shift pqHead mid-sequence.
			if rng.Intn(3) == 0 {
				g, okG := got.peek()
				w, okW := want.peek()
				if okG != okW || (okG && g != w) {
					t.Fatalf("trial %d: peek diverged: (%d,%v) vs (%d,%v)", trial, g, okG, w, okW)
				}
				if okG {
					got.pop()
					want.pop()
				}
			}
			if len(got.pq) != len(want.pq) || got.pqHead != want.pqHead {
				t.Fatalf("trial %d: shape diverged: len %d/%d head %d/%d",
					trial, len(got.pq), len(want.pq), got.pqHead, want.pqHead)
			}
			for i := got.pqHead; i < len(got.pq); i++ {
				if got.pq[i] != want.pq[i] {
					t.Fatalf("trial %d: pq[%d] = %d, want %d (queue %v vs %v)",
						trial, i, got.pq[i], want.pq[i], got.pq[got.pqHead:], want.pq[want.pqHead:])
				}
			}
		}
		// Drain both; dispatch order must agree to the end.
		for {
			g, okG := got.peek()
			w, okW := want.peek()
			if okG != okW {
				t.Fatalf("trial %d: drain length diverged", trial)
			}
			if !okG {
				break
			}
			if g != w {
				t.Fatalf("trial %d: drain order diverged: %d vs %d", trial, g, w)
			}
			got.pop()
			want.pop()
		}
	}
}
