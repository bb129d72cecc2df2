package main

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/wire"
)

func TestSameSeedSameRequests(t *testing.T) {
	warm, err := coldWarmup()
	if err != nil {
		t.Fatal(err)
	}
	a, err := newColdSequence(7, warm).prefix(300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newColdSequence(7, warm).prefix(300)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newColdSequence(8, warm).prefix(300)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("seed 7 request %d differs between two generations:\n%s\n%s", i, a[i].body, b[i].body)
		}
		differs = differs || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated the same cold-mix sequence")
	}

	sa, sb := hotSchedule(7, 0.5), hotSchedule(7, 0.5)
	if len(sa) != len(sb) {
		t.Fatalf("hot-zipf schedules of one seed have %d and %d arrivals", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("hot-zipf arrival %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	pa, err := newBatchPass(7)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := newBatchPass(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.sweep, pb.sweep) || len(pa.experiments) != len(pb.experiments) {
		t.Fatal("batch-eval passes of one seed differ")
	}
	for i := range pa.experiments {
		if pa.experiments[i].path != pb.experiments[i].path {
			t.Fatalf("batch-eval experiment %d: %s vs %s", i, pa.experiments[i].path, pb.experiments[i].path)
		}
	}
}

func TestColdMixKeysDistinct(t *testing.T) {
	warm, err := coldWarmup()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := newColdSequence(1, warm).prefix(3000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, s := range append(warm, seq...) {
		h := wire.RunKeyHashV2(s.spec, s.plan)
		if j, dup := seen[h]; dup {
			t.Fatalf("requests %d and %d share key %s", j, i, h)
		}
		seen[h] = i
	}
	// The mix: presets about 5:3:2, one in ten custom, a third spot.
	var presets = map[string]int{}
	custom, spot := 0, 0
	for _, s := range seq {
		if s.plan.Spot.RatePerHour > 0 {
			spot++
		}
		if strings.Contains(string(s.body), `"degrees"`) {
			custom++
		} else {
			presets[s.spec.Name]++
		}
	}
	n := float64(len(seq))
	if f := float64(custom) / n; math.Abs(f-0.1) > 0.01 {
		t.Errorf("custom share %.3f, want about 0.1", f)
	}
	if f := float64(spot) / n; math.Abs(f-1.0/3) > 0.01 {
		t.Errorf("spot share %.3f, want about 1/3", f)
	}
	p1, p2, p4 := float64(presets["montage-1deg"]), float64(presets["montage-2deg"]), float64(presets["montage-4deg"])
	if sum := p1 + p2 + p4; math.Abs(p1/sum-0.5) > 0.02 || math.Abs(p2/sum-0.3) > 0.02 || math.Abs(p4/sum-0.2) > 0.02 {
		t.Errorf("preset mix %v, want about 5:3:2", presets)
	}
}

func TestZipfRankFrequencies(t *testing.T) {
	const n, draws = hotSetSize, 400_000
	z := newZipf(n)
	r := newRand(3, 99)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(r)]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for rank := 1; rank <= 8; rank++ {
		want := draws / (float64(rank) * h)
		if got := float64(counts[rank-1]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want %.0f (s=1)", rank, got, want)
		}
	}
	top := 0
	for _, c := range counts[:1024] {
		top += c
	}
	h1024 := 0.0
	for k := 1; k <= 1024; k++ {
		h1024 += 1 / float64(k)
	}
	if got, want := float64(top)/draws, h1024/h; math.Abs(got-want) > 0.005 {
		t.Errorf("top-1024 share %.4f, want %.4f", got, want)
	}
}

// A daemon restarted over a freshly built fixture serves the most
// popular hot-zipf scenarios byte-identically without simulating.
func TestFixtureServesPopularWithoutSimulating(t *testing.T) {
	set, err := hotSet()
	if err != nil {
		t.Fatal(err)
	}
	ranks := hotRanks(1)
	var popular []scenario
	for _, item := range ranks[:100] {
		popular = append(popular, set[item])
	}
	dir := t.TempDir()
	bodies, err := buildFixture(context.Background(), dir, popular)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i, s := range popular {
		resp, err := c.do(request("POST", "/v2/run", s.body), 10*time.Second)
		if err != nil || resp.status != 200 {
			t.Fatalf("scenario %d: status %d, err %v", i, resp.status, err)
		}
		if resp.cache != "store" {
			t.Errorf("scenario %d served from %q, want store", i, resp.cache)
		}
		if !bytes.Equal(resp.body, bodies[i]) {
			t.Fatalf("scenario %d: body differs from the fixture", i)
		}
	}
	m, err := scrape(addr)
	if err != nil {
		t.Fatal(err)
	}
	if sims := m["reprosrv_simulations_total"]; sims != 0 {
		t.Fatalf("reprosrv_simulations_total = %v, want 0", sims)
	}
	if hits := m["reprosrv_store_hits_total"]; hits != float64(len(popular)) {
		t.Fatalf("reprosrv_store_hits_total = %v, want %d", hits, len(popular))
	}
}

func TestSelfTimesSubtractOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 10 * ms},
		{name: "a", parent: 0, start: 1 * ms, end: 5 * ms},
		{name: "b", parent: 0, start: 3 * ms, end: 7 * ms}, // overlaps a
		{name: "c", parent: 1, start: 2 * ms, end: 3 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{4 * ms, 3 * ms, 4 * ms, 1 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s self time %v, want %v", spans[i].name, self[i], want[i])
		}
	}
	tids := laneTids(spans)
	if tids[0] != tids[1] || tids[1] != tids[3] || tids[2] == tids[1] {
		t.Errorf("lanes %v: a and c should nest under root, b (overlapping a) needs its own lane", tids)
	}
}
