package andor

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"andorsched/internal/exectime"
)

// parseBudgetSeeds are the workload.Random seeds whose 23–24-node, ~1.4 KB
// texts the ParseText allocation budget is measured on.
var parseBudgetSeeds = []uint64{4, 10, 15}

// randomText renders workload.Random(seed)'s application.
func randomText(seed uint64) string {
	return FormatText(RandomGraph(exectime.NewSource(seed), DefaultRandomOpts()))
}

// TestParseTextAllocs bounds ParseText's allocations on the budget texts:
// lines and fields are split in place, so what is left is the graph
// itself, the name table and the error-free directive path.
func TestParseTextAllocs(t *testing.T) {
	for _, seed := range parseBudgetSeeds {
		src := randomText(seed)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ParseText(src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("seed %d (%d bytes): %.0f allocs", seed, len(src), allocs)
		if allocs > 200 {
			t.Errorf("ParseText of seed %d allocates %.0f times, want <= 200", seed, allocs)
		}
	}
}

func BenchmarkParseText(b *testing.B) {
	for _, seed := range parseBudgetSeeds {
		src := randomText(seed)
		b.Run(fmt.Sprintf("seed%d", seed), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseText(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzAppendFields holds the .andor field splitter to strings.Fields, on
// ASCII, Unicode spaces and invalid UTF-8 alike, and checks that it
// appends after dst's existing fields.
func FuzzAppendFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "task A 8ms 5ms", "  edge\tA ->\vB\fC\r",
		"a\u0085b c", "x y　z​w", "\xff \xfe\x80", "é ᠎",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.Fields(s)
		got := appendFields([]string{"prefix"}, s)
		if !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("appendFields(%q) = %q, strings.Fields = %q", s, got[1:], want)
		}
		if got[0] != "prefix" {
			t.Fatalf("appendFields clobbered dst: %q", got)
		}
	})
}

// TestParseTextKeepsNoReference parses texts that are views of a byte
// buffer, then overwrites the buffer: the graph, its rendering and the
// errors must not change, since a server parses request bodies in place.
func TestParseTextKeepsNoReference(t *testing.T) {
	for _, src := range []string{
		randomText(4),
		"app A\ntask T 1ms 1ms @big\nloop L 1ms 1ms : 0.5 0.5\nedge T -> L#1",
		crossingText,
		"task A 1ms 1ms\nedge A -> B",
	} {
		buf := []byte(src)
		view := unsafe.String(unsafe.SliceData(buf), len(buf))
		g, err := ParseText(view)
		var text, msg string
		if err != nil {
			msg = err.Error()
		} else {
			text = FormatText(g)
		}
		for i := range buf {
			buf[i] = 'Z'
		}
		if err != nil {
			if err.Error() != msg {
				t.Errorf("overwriting the text changed the error %q to %q", msg, err)
			}
			continue
		}
		if after := FormatText(g); after != text {
			t.Errorf("overwriting the text changed the graph\nbefore:\n%s\nafter:\n%s", text, after)
		}
	}
}
