package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"

	"andorsched/internal/andor"
	"andorsched/internal/power"
)

// cacheKey identifies one off-line compilation: the application (by a
// canonical content hash), the platform (by its spec string), the
// processor count, and the power-management overheads. Two requests with
// the same key share one Plan. A heterogeneous request instead carries the
// platform's content hash (power.Hetero.Key — a reference name and its
// spelled-out spec collapse onto one entry) plus the placement policy,
// which is a plan parameter; platform and procs stay zero there.
type cacheKey struct {
	graph     [sha256.Size]byte
	platform  string
	procs     int
	hetero    string
	placement string
	ov        power.Overheads
}

// graphDigest hashes a graph's canonical text rendering. AppendText is
// deterministic (nodes and edges in ID order), so structurally identical
// submissions — whether they arrived as JSON, .andor text or a named
// workload — collapse onto one digest. Typical applications render into
// the stack buffer; larger ones grow it on the heap.
func graphDigest(g *andor.Graph) [sha256.Size]byte {
	var buf [2048]byte
	return sha256.Sum256(andor.AppendText(buf[:0], g))
}

// textMemo maps the SHA-256 of a request's .andor text to the graph digest
// of what it parses to, so a warm text request builds its cache key
// without parsing or rendering. Parsing is a pure function of the text, so
// an entry can never go stale; it is written only for text that parsed,
// validated and fit maxGraphNodes. The table is direct-mapped and
// lock-free: each slot is an atomic pointer to an immutable entry, and a
// colliding insert simply replaces the slot's previous occupant.
type textMemo struct {
	mask  uint64
	slots []atomic.Pointer[textMemoEntry]
}

type textMemoEntry struct {
	text, graph [sha256.Size]byte
}

// newTextMemo sizes the table to the power of two at or above eight slots
// per plan-cache entry. A direct-mapped table drops an entry whenever two
// texts share a slot; at that load the texts of the cached plans rarely
// collide, and a used slot costs only 72 bytes.
func newTextMemo(planCap int) *textMemo {
	n := 1
	for n < 8*planCap {
		n <<= 1
	}
	return &textMemo{mask: uint64(n - 1), slots: make([]atomic.Pointer[textMemoEntry], n)}
}

func (m *textMemo) slot(text *[sha256.Size]byte) *atomic.Pointer[textMemoEntry] {
	return &m.slots[binary.LittleEndian.Uint64(text[:8])&m.mask]
}

// textKey is the SHA-256 of a request's text, the memo's key. It feeds
// the text through a stack chunk: sha256.Sum256 takes bytes, and
// converting a ~1.5 KB text to them would copy it on the heap on every
// text request.
func textKey(text string) (sum [sha256.Size]byte) {
	var chunk [512]byte
	h := sha256.New()
	for len(text) > 0 {
		n := copy(chunk[:], text)
		h.Write(chunk[:n])
		text = text[n:]
	}
	h.Sum(sum[:0])
	return sum
}

// lookup returns the graph digest memoized for the text hash.
func (m *textMemo) lookup(text [sha256.Size]byte) ([sha256.Size]byte, bool) {
	if e := m.slot(&text).Load(); e != nil && e.text == text {
		return e.graph, true
	}
	return [sha256.Size]byte{}, false
}

// insert records that the text hashing to text parses to a graph with the
// given digest.
func (m *textMemo) insert(text, graph [sha256.Size]byte) {
	m.slot(&text).Store(&textMemoEntry{text: text, graph: graph})
}
