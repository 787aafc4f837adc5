package serve

import (
	"encoding/hex"
	"fmt"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/workload"
)

// digestCases are the graphs whose graphDigest values are frozen below:
// the builtin workloads, sixteen random graphs, and a hand-built graph
// whose names need the renderer's escaping (spaces, tabs, invalid UTF-8,
// an empty name) and carry class tags.
func digestCases() map[string]*andor.Graph {
	cases := map[string]*andor.Graph{
		"atr":       workload.ATR(workload.DefaultATRConfig()),
		"synthetic": workload.Synthetic(),
		"names":     awkwardNamesGraph(),
	}
	for seed := uint64(1); seed <= 16; seed++ {
		cases[fmt.Sprintf("random:%d", seed)] = workload.Random(seed, andor.DefaultRandomOpts())
	}
	return cases
}

// awkwardNamesGraph builds, without ParseText's name checks, a graph whose
// names exercise every escaping rule of the text renderer, with task times
// in each of its three units.
func awkwardNamesGraph() *andor.Graph {
	g := andor.NewGraph("app with\tspaces")
	a := g.AddTask("Detect target", 8e-3, 5e-3)
	g.SetClass(a, "accel")
	b := g.AddTask("tab\tname", 1.5, 0.75)
	g.SetClass(b, "big core")
	c := g.AddTask("", 250e-6, 125e-6)
	d := g.AddTask("bad\xffutf8", 3e-3, 3e-3)
	or := g.AddOr("Branch point")
	and := g.AddAnd("join\t")
	e := g.AddTask("Report#1", 2e-3, 1e-3)
	g.AddEdge(a, or)
	g.AddEdge(or, b)
	g.AddEdge(or, c)
	g.AddEdge(or, d)
	g.SetBranchProbs(or, 0.5, 0.3, 0.2)
	g.AddEdge(b, and)
	g.AddEdge(c, and)
	g.AddEdge(d, and)
	g.AddEdge(and, e)
	return g
}

// goldenGraphDigests holds the hex graphDigest of every digestCases graph,
// recorded from the fmt-based renderer. The plan cache's keys and owner
// routing are derived from these values, so a renderer rewrite must keep
// every one. Never regenerate them.
var goldenGraphDigests = map[string]string{
	"atr":       "a6681f7f91eeb3bbc8151e974544355f98c2eaf07a49c96a86a409785c222351",
	"synthetic": "ab2debc2cb40f0e4971d7f44676f378830fe1c9e4b11bdfc108fd209e9266f4c",
	"names":     "a2407acb49c9d6e9abbf0f341108d46294ed887a30db50577ac4e833e543e6a4",
	"random:1":  "a6e6bf91c7115d110d948566f3f39374e987b7ebb92a0ad85e5c87c25fbfdbff",
	"random:2":  "9acac244836ae65b998d5665a38707a260c32e4c9f7e04f5675c180e9c4b0bca",
	"random:3":  "32d77e274d2a38ae167c87855f4ed5ef7ba3c84f4361b5b226d93d7bce9662b9",
	"random:4":  "b2ba188635c1ea479d9d5a285ae4d9476d12799f8aff96aed8e557796717987b",
	"random:5":  "54c45620af252e75d7351f8d70ed27dd95a00c4e4bec62c23e3317a13b67cc50",
	"random:6":  "9ed49c5f7c8c169f964f954f88a6f37d934f66c065cc00a6f3bd40c2716e98be",
	"random:7":  "841e9edaadb1f017b89360bce66b96ab98d4542f38735a0c678ca8b3ad6f4b8f",
	"random:8":  "6c76782fcd1aa0c58606285c80a1bdb577ca1b42c2d945d538641c69c0b76f78",
	"random:9":  "6303231270f7b4baa571e7c423830bf2b1762a8971ae1749776ea37746651acd",
	"random:10": "b8a8ee1e6b5c246a2276c5d6845b81dbab8b93b51e136affbeab649a4399878d",
	"random:11": "2d2ae64359081da186ecf7c7bc4a54c644ba4b7561d58b7169ba14a40c9d1ace",
	"random:12": "02b15a3335633b2ca823e52f3d561808377abd0fbdd6b27b889810a1c40253f5",
	"random:13": "57cf097fa03ada40473eaca774f1c20d833f9bbb0356be1655ada4b77fae0df8",
	"random:14": "c23038db62e43060e56fb4f200899c49aa3383600a3f3717ab7ebf1947522375",
	"random:15": "c1d5c3ad55e4007d88d9b5442c7654df59c223e7cf868fd26308d114b461ad65",
	"random:16": "319fbaafac02fe094131ee493f247995180a37dcfeb554f64aad5beb071b9f2a",
}

func TestGraphDigestGolden(t *testing.T) {
	for name, g := range digestCases() {
		d := graphDigest(g)
		got := hex.EncodeToString(d[:])
		if want, ok := goldenGraphDigests[name]; !ok || got != want {
			t.Errorf("%s: graphDigest %s, frozen %s", name, got, want)
		}
	}
}
