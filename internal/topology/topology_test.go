package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"netanomaly/internal/mat"
)

func mustBuild(t *testing.T, b *Builder) *Topology {
	t.Helper()
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// line3 builds a 3-PoP line topology x - y - z.
func line3(t *testing.T) *Topology {
	b := NewBuilder("line3")
	b.AddPoP("x")
	b.AddPoP("y")
	b.AddPoP("z")
	b.AddDuplex("x", "y")
	b.AddDuplex("y", "z")
	return mustBuild(t, b)
}

func TestBuilderCounts(t *testing.T) {
	topo := line3(t)
	if topo.NumPoPs() != 3 {
		t.Fatalf("NumPoPs = %d", topo.NumPoPs())
	}
	// 3 intra + 4 directed inter.
	if topo.NumLinks() != 7 {
		t.Fatalf("NumLinks = %d want 7", topo.NumLinks())
	}
	if topo.NumFlows() != 9 {
		t.Fatalf("NumFlows = %d want 9", topo.NumFlows())
	}
}

func TestBuilderWithoutIntraLinks(t *testing.T) {
	b := NewBuilder("noin").WithoutIntraPoPLinks()
	b.AddPoP("x")
	b.AddPoP("y")
	b.AddDuplex("x", "y")
	topo := mustBuild(t, b)
	if topo.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d want 2", topo.NumLinks())
	}
	// Self flow has an empty route when intra links are disabled.
	x, _ := topo.PoPByName("x")
	if got := topo.Route(topo.FlowID(x.ID, x.ID)); len(got) != 0 {
		t.Fatalf("self route = %v want empty", got)
	}
}

func TestBuilderDuplicatePoP(t *testing.T) {
	b := NewBuilder("dup")
	b.AddPoP("x")
	b.AddPoP("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate error, got %v", err)
	}
}

func TestBuilderUnknownPoPInEdge(t *testing.T) {
	b := NewBuilder("unknown")
	b.AddPoP("x")
	b.AddDuplex("x", "nosuch")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for unknown PoP")
	}
}

func TestBuilderSelfEdge(t *testing.T) {
	b := NewBuilder("self")
	b.AddPoP("x")
	b.AddDuplex("x", "x")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for self edge")
	}
}

func TestBuilderEmpty(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("expected error for empty network")
	}
}

func TestBuilderDisconnected(t *testing.T) {
	b := NewBuilder("disc")
	b.AddPoP("x")
	b.AddPoP("y")
	b.AddPoP("z")
	b.AddDuplex("x", "y")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "connected") {
		t.Fatalf("expected connectivity error, got %v", err)
	}
}

func TestRouteLine(t *testing.T) {
	topo := line3(t)
	x, _ := topo.PoPByName("x")
	z, _ := topo.PoPByName("z")
	path := topo.Route(topo.FlowID(x.ID, z.ID))
	if len(path) != 2 {
		t.Fatalf("x->z path = %v want 2 hops", path)
	}
	links := topo.Links()
	if links[path[0]].Src != x.ID || links[path[1]].Dst != z.ID {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	// Path continuity.
	if links[path[0]].Dst != links[path[1]].Src {
		t.Fatal("path not continuous")
	}
}

func TestSelfFlowUsesIntraLink(t *testing.T) {
	topo := line3(t)
	y, _ := topo.PoPByName("y")
	path := topo.Route(topo.FlowID(y.ID, y.ID))
	if len(path) != 1 {
		t.Fatalf("self route = %v want 1 intra link", path)
	}
	if !topo.Links()[path[0]].Intra() {
		t.Fatal("self flow must use intra-PoP link")
	}
}

func TestFlowIDRoundTrip(t *testing.T) {
	topo := Abilene()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := rng.Intn(topo.NumPoPs())
		d := rng.Intn(topo.NumPoPs())
		id := topo.FlowID(o, d)
		o2, d2 := topo.FlowEndpoints(id)
		return o2 == o && d2 == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowIDPanics(t *testing.T) {
	topo := line3(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	topo.FlowID(5, 0)
}

func TestFlowName(t *testing.T) {
	topo := line3(t)
	x, _ := topo.PoPByName("x")
	z, _ := topo.PoPByName("z")
	if got := topo.FlowName(topo.FlowID(x.ID, z.ID)); got != "x->z" {
		t.Fatalf("FlowName = %q", got)
	}
}

func TestPoPByNameMissing(t *testing.T) {
	topo := line3(t)
	if _, ok := topo.PoPByName("nosuch"); ok {
		t.Fatal("PoPByName must report missing names")
	}
}

func TestRoutingMatrixShape(t *testing.T) {
	topo := line3(t)
	a := topo.RoutingMatrix()
	r, c := a.Dims()
	if r != topo.NumLinks() || c != topo.NumFlows() {
		t.Fatalf("A dims = %dx%d want %dx%d", r, c, topo.NumLinks(), topo.NumFlows())
	}
}

func TestRoutingMatrixBinary(t *testing.T) {
	a := Abilene().RoutingMatrix()
	r, c := a.Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := a.At(i, j)
			if v != 0 && v != 1 {
				t.Fatalf("A(%d,%d) = %v, must be 0/1", i, j, v)
			}
		}
	}
}

func TestRoutingMatrixColumnsMatchRoutes(t *testing.T) {
	topo := Abilene()
	a := topo.RoutingMatrix()
	for f := 0; f < topo.NumFlows(); f++ {
		var ones int
		for i := 0; i < topo.NumLinks(); i++ {
			if a.At(i, f) == 1 {
				ones++
			}
		}
		if ones != len(topo.Route(f)) {
			t.Fatalf("flow %s: column weight %d != route length %d",
				topo.FlowName(f), ones, len(topo.Route(f)))
		}
	}
}

// Every route must be a contiguous directed path from origin to destination.
func TestRoutesAreValidPaths(t *testing.T) {
	for _, topo := range []*Topology{Abilene(), SprintEurope(), Synthetic(8, 12, 42)} {
		links := topo.Links()
		for f := 0; f < topo.NumFlows(); f++ {
			o, d := topo.FlowEndpoints(f)
			path := topo.Route(f)
			if o == d {
				if len(path) != 1 || !links[path[0]].Intra() {
					t.Fatalf("%s: self flow route %v", topo.Name(), path)
				}
				continue
			}
			if len(path) == 0 {
				t.Fatalf("%s: empty path for %s", topo.Name(), topo.FlowName(f))
			}
			if links[path[0]].Src != o || links[path[len(path)-1]].Dst != d {
				t.Fatalf("%s: path endpoints wrong for %s", topo.Name(), topo.FlowName(f))
			}
			for k := 1; k < len(path); k++ {
				if links[path[k-1]].Dst != links[path[k]].Src {
					t.Fatalf("%s: discontinuous path for %s", topo.Name(), topo.FlowName(f))
				}
			}
		}
	}
}

// Routes must be shortest: compare against an independent Floyd-Warshall.
func TestRoutesAreShortest(t *testing.T) {
	topo := Abilene()
	n := topo.NumPoPs()
	const inf = 1 << 20
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			if i == j {
				dist[i][j] = 0
			} else {
				dist[i][j] = inf
			}
		}
	}
	for _, l := range topo.Links() {
		if !l.Intra() {
			dist[l.Src][l.Dst] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dist[i][k]+dist[k][j] < dist[i][j] {
					dist[i][j] = dist[i][k] + dist[k][j]
				}
			}
		}
	}
	for o := 0; o < n; o++ {
		for d := 0; d < n; d++ {
			if o == d {
				continue
			}
			got := len(topo.Route(topo.FlowID(o, d)))
			if got != dist[o][d] {
				t.Fatalf("route %d->%d length %d, shortest is %d", o, d, got, dist[o][d])
			}
		}
	}
}

func TestAbileneMatchesTable1(t *testing.T) {
	topo := Abilene()
	if topo.NumPoPs() != 11 {
		t.Fatalf("Abilene PoPs = %d want 11", topo.NumPoPs())
	}
	if topo.NumLinks() != 41 {
		t.Fatalf("Abilene links = %d want 41 (Table 1)", topo.NumLinks())
	}
	for _, name := range []string{"nycm", "atla", "hstn", "wash", "losa", "snva", "sttl", "dnvr", "kscy", "chin", "ipls"} {
		if _, ok := topo.PoPByName(name); !ok {
			t.Fatalf("Abilene missing PoP %q", name)
		}
	}
}

func TestSprintEuropeMatchesTable1(t *testing.T) {
	topo := SprintEurope()
	if topo.NumPoPs() != 13 {
		t.Fatalf("Sprint PoPs = %d want 13", topo.NumPoPs())
	}
	if topo.NumLinks() != 49 {
		t.Fatalf("Sprint links = %d want 49 (Table 1)", topo.NumLinks())
	}
}

func TestPresetsDeterministic(t *testing.T) {
	a1, a2 := Abilene(), Abilene()
	if !mat.EqualApprox(a1.RoutingMatrix(), a2.RoutingMatrix(), 0) {
		t.Fatal("Abilene routing matrix must be deterministic")
	}
}

func TestSyntheticDeterministicInSeed(t *testing.T) {
	t1 := Synthetic(10, 15, 7)
	t2 := Synthetic(10, 15, 7)
	if !mat.EqualApprox(t1.RoutingMatrix(), t2.RoutingMatrix(), 0) {
		t.Fatal("Synthetic must be deterministic in seed")
	}
	t3 := Synthetic(10, 15, 8)
	if mat.EqualApprox(t1.RoutingMatrix(), t3.RoutingMatrix(), 0) {
		t.Fatal("different seeds should produce different networks")
	}
}

func TestSyntheticConnectivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		maxE := n * (n - 1) / 2
		e := n - 1 + rng.Intn(maxE-(n-1)+1)
		topo := Synthetic(n, e, seed)
		// Build succeeded => strongly connected; also verify counts.
		return topo.NumPoPs() == n && topo.NumLinks() == n+2*e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { Synthetic(1, 1, 0) },
		func() { Synthetic(5, 3, 0) },  // fewer than n-1
		func() { Synthetic(5, 11, 0) }, // more than complete graph
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec      string
		seed      int64 // ParseSeeded's seed; 0 exercises Parse
		wantLinks int   // 0 means an error is expected
	}{
		{"abilene", 0, 41},
		{"sprint", 0, 49},
		{"synthetic:24:48:7", 0, 120},
		{"synthetic:2:1:-3", 0, 4},
		{"synthetic:24:48", 7, 120},
		{"abilene", 7, 41},
		{"synthetic:0:0:1", 0, 0},         // too few PoPs
		{"synthetic:5:2:1", 0, 0},         // fewer edges than a spanning tree
		{"synthetic:5:11:1", 0, 0},        // more than the complete graph
		{"synthetic:70000:69999:1", 0, 0}, // past the PoP bound
		{"synthetic:24:48:7junk", 0, 0},
		{"synthetic:24x:48:7", 0, 0},
		{"synthetic:24:48:7:1", 0, 0},
		{"synthetic:24:48", 0, 0},   // Parse wants the seed field
		{"synthetic:24:48:7", 7, 0}, // ParseSeeded does not
		{"synthetic:", 0, 0},
		{"Abilene", 0, 0},
		{"", 0, 0},
	}
	for _, tc := range cases {
		var topo *Topology
		var err error
		if tc.seed == 0 {
			topo, err = Parse(tc.spec)
		} else {
			topo, err = ParseSeeded(tc.spec, tc.seed)
		}
		switch {
		case tc.wantLinks == 0 && err == nil:
			t.Errorf("%q (seed %d): accepted, want an error", tc.spec, tc.seed)
		case tc.wantLinks != 0 && err != nil:
			t.Errorf("%q (seed %d): %v", tc.spec, tc.seed, err)
		case tc.wantLinks != 0 && topo.NumLinks() != tc.wantLinks:
			t.Errorf("%q (seed %d): %d links, want %d", tc.spec, tc.seed, topo.NumLinks(), tc.wantLinks)
		}
	}
	// The seed field and ParseSeeded's seed build the same network.
	a, err := Parse("synthetic:10:15:7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSeeded("synthetic:10:15", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(a.RoutingMatrix(), b.RoutingMatrix(), 0) {
		t.Fatal("synthetic:10:15:7 and ParseSeeded(synthetic:10:15, 7) differ")
	}
}

func TestIntraLinksComeFirst(t *testing.T) {
	topo := Abilene()
	links := topo.Links()
	for i := 0; i < topo.NumPoPs(); i++ {
		if !links[i].Intra() {
			t.Fatalf("link %d should be intra-PoP", i)
		}
	}
	for i := topo.NumPoPs(); i < topo.NumLinks(); i++ {
		if links[i].Intra() {
			t.Fatalf("link %d should be inter-PoP", i)
		}
	}
}
