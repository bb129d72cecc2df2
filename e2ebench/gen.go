package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/montage"
	"repro/wire"
)

// Stream identifiers keep the random streams drawn from one seed
// independent of each other.
const (
	streamColdMix = iota + 1
	streamHotSet
	streamHotArrivals
	streamBatch
	streamHotRanks
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// scenario is one generated /v2/run request with everything the
// benchmark needs to check and replay it.
type scenario struct {
	body []byte // the POST body, exactly as sent
	spec montage.Spec
	plan core.Plan
	key  string // wire.CanonicalRunKeyV2
}

func newScenario(sc wire.Scenario) (scenario, error) {
	body, err := json.Marshal(sc)
	if err != nil {
		return scenario{}, err
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		return scenario{}, fmt.Errorf("generated scenario %s does not resolve: %w", body, err)
	}
	return scenario{body: body, spec: spec, plan: plan, key: wire.CanonicalRunKeyV2(spec, plan)}, nil
}

var (
	presets = []string{"1deg", "2deg", "4deg"}
	modes   = []string{"remote-io", "regular", "cleanup"}
)

// customDegreeSteps bounds the custom mosaic sizes a run can draw:
// 1 to 3 degrees in steps of 0.0002, each used at most once.
const customDegreeSteps = 10000

// mixBlock is the composition every block of 60 generated scenarios
// repeats: per workflow, how many scenarios and how many of those rent
// spot capacity with checkpointing.  27:16:11 is about 5:3:2 over the
// presets, 6 custom mosaics are one in ten, and 20 spot runs a third.
// Within each group the processor counts (1-128), spot reclaim rates
// and custom sizes are stratified over their ranges, so a run's cost
// mix hardly depends on the seed while every draw still does.
var mixBlock = []struct {
	workflow string // a preset, or "" for a custom workflow.degrees
	n, spot  int
}{
	{"1deg", 27, 9}, {"2deg", 16, 5}, {"4deg", 11, 4}, {"", 6, 2},
}

// mixGen draws the scenario mix block by block; every scenario's
// canonical key is distinct from every earlier one.
type mixGen struct {
	rng     *rand.Rand
	seen    map[string]bool
	degrees map[int]bool
	pending []wire.Scenario
}

func newMixGen(seed, stream uint64) *mixGen {
	return &mixGen{rng: newRand(seed, stream), seen: map[string]bool{}, degrees: map[int]bool{}}
}

// reserve marks keys drawn elsewhere (the warm-up set) as taken.
func (g *mixGen) reserve(s scenario) { g.seen[s.key] = true }

func (g *mixGen) next() (scenario, error) {
	for {
		if len(g.pending) == 0 {
			if err := g.fillBlock(); err != nil {
				return scenario{}, err
			}
		}
		sc := g.pending[0]
		g.pending = g.pending[1:]
		s, err := newScenario(sc)
		if err != nil {
			return scenario{}, err
		}
		if !g.seen[s.key] {
			g.seen[s.key] = true
			return s, nil
		}
	}
}

// strata returns n values spread over [0, span): one uniform draw from
// each of n equal slices, in random order.
func (g *mixGen) strata(n, span int) []int {
	out := make([]int, n)
	for j := range out {
		out[j] = int((float64(j) + g.rng.Float64()) * float64(span) / float64(n))
	}
	g.rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func (g *mixGen) fillBlock() error {
	r := g.rng
	var block []wire.Scenario
	for _, c := range mixBlock {
		for _, group := range []struct {
			n    int
			spot bool
		}{{c.n - c.spot, false}, {c.spot, true}} {
			procs := g.strata(group.n, 128)
			rates := g.strata(group.n, 10)
			sizes := g.strata(group.n, customDegreeSteps)
			mode := r.IntN(len(modes))
			for j := 0; j < group.n; j++ {
				sc := wire.Scenario{Version: wire.Version, Workflow: wire.WorkflowSection{Name: c.workflow}}
				if c.workflow == "" {
					if len(g.degrees) == customDegreeSteps {
						return fmt.Errorf("scenario generator ran out of unused custom degree values")
					}
					step := sizes[j]
					for g.degrees[step] {
						step = (step + 1) % customDegreeSteps
					}
					g.degrees[step] = true
					sc.Workflow.Degrees = 1 + float64(step)/5000
				}
				sc.Fleet = &wire.FleetSection{Processors: 1 + procs[j]}
				sc.Storage = &wire.StorageSection{Mode: modes[(mode+j)%len(modes)], BandwidthMbps: float64(5 + r.IntN(96))}
				if r.IntN(2) == 0 {
					sc.Pricing = &wire.PricingSection{Billing: "provisioned"}
				}
				if group.spot {
					sc.Spot = &wire.SpotSection{RatePerHour: 0.1 * float64(1+rates[j]), Seed: r.Int64N(1 << 31), Discount: 0.7}
					sc.Recovery = &wire.RecoverySection{
						CheckpointSeconds:         float64(60 * (1 + r.IntN(10))),
						CheckpointOverheadSeconds: 5,
					}
				}
				block = append(block, sc)
			}
		}
	}
	r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	g.pending = block
	return nil
}

// coldWarmup is the cold-mix warm-up: one run per preset and storage
// mode at full parallelism.  Its keys never recur in the measured
// sequence, whose scenarios all name a processor count.
func coldWarmup() ([]scenario, error) {
	var out []scenario
	for _, p := range presets {
		for _, m := range modes {
			s, err := newScenario(wire.Scenario{
				Version:  wire.Version,
				Workflow: wire.WorkflowSection{Name: p},
				Storage:  &wire.StorageSection{Mode: m},
			})
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// coldSequence is the fixed cold-mix request sequence for a seed:
// scenarios with pairwise distinct keys, none equal to a warm-up key,
// generated on demand so its length follows the daemon's throughput
// (up to 100,000 runs, where the custom sizes run out).  It is safe for
// concurrent use.
type coldSequence struct {
	mu  sync.Mutex
	gen *mixGen
	seq []scenario
}

func newColdSequence(seed uint64, warmup []scenario) *coldSequence {
	g := newMixGen(seed, streamColdMix)
	for _, s := range warmup {
		g.reserve(s)
	}
	return &coldSequence{gen: g}
}

// prefix returns the first n scenarios.
func (c *coldSequence) prefix(n int) ([]scenario, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.seq) < n {
		s, err := c.gen.next()
		if err != nil {
			return nil, err
		}
		c.seq = append(c.seq, s)
	}
	return c.seq[:n], nil
}

// hotSetSize is the number of distinct hot-zipf scenarios; the daemon's
// default 1,024-entry LRU holds a quarter of them.
const hotSetSize = 4096

// hotSetSeed fixes the hot-zipf scenario set, so the store fixture of
// its results is built once per source tree rather than once per run;
// the workload seed decides which scenario gets which popularity rank,
// and the arrivals.
const hotSetSeed = 0x5eed

// hotSet draws the hot-zipf scenarios from the cold-mix generator on a
// stream of their own.
func hotSet() ([]scenario, error) {
	g := newMixGen(hotSetSeed, streamHotSet)
	out := make([]scenario, hotSetSize)
	for i := range out {
		s, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// hotRanks maps popularity rank (0 = most popular) to an index into
// the hot set, for a workload seed.
func hotRanks(seed uint64) []int {
	return newRand(seed, streamHotRanks).Perm(hotSetSize)
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1), zipf with s=1, by inverting the cumulative distribution.
type zipf struct {
	cdf []float64
}

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	return min(i, len(z.cdf)-1)
}

// rung is one open-loop rate of the hot-zipf ladder.
type rung struct {
	rate   float64 // requests per second
	weight float64 // share of the measured seconds
}

// hotLadder is fixed here and never adapted at run time.  The
// reference rate gets the longest rung so its percentiles rest on the
// most samples.
var hotLadder = []rung{
	{1000, 1}, {2000, 3}, {3000, 1}, {4000, 1}, {6000, 1},
}

const hotReferenceRate = 2000

// arrival is one scheduled hot-zipf request.
type arrival struct {
	due  int64 // nanoseconds after the schedule's start
	item int   // index into the hot set
	rung int   // index into hotLadder
}

// hotSchedule lays out Poisson arrivals at each ladder rate in turn,
// the seconds split by rung weight, each picking a zipf(s=1) rank.
func hotSchedule(seed uint64, seconds float64) []arrival {
	r := newRand(seed, streamHotArrivals)
	ranks := hotRanks(seed)
	z := newZipf(hotSetSize)
	total := 0.0
	for _, g := range hotLadder {
		total += g.weight
	}
	var out []arrival
	start := 0.0
	for i, g := range hotLadder {
		end := start + seconds*g.weight/total
		for t := start + r.ExpFloat64()/g.rate; t < end; t += r.ExpFloat64() / g.rate {
			out = append(out, arrival{due: int64(t * 1e9), item: ranks[z.draw(r)], rung: i})
		}
		start = end
	}
	return out
}

// seededExperiments are the registered experiments that take ?seed=.
var seededExperiments = map[string]bool{
	"overload": true, "spot-frontier": true, "mixed-fleet": true,
	"scenario-grid": true, "policy-tournament": true,
}

// batchExperiment is one GET /v2/experiments/{name} of a pass.
type batchExperiment struct {
	name string
	seed *int64
	path string
}

// batchPass is the batch-eval pass for a seed: every registered
// experiment in registry order, then one any-axis sweep.
type batchPass struct {
	experiments []batchExperiment
	sweep       []byte // the POST /v2/sweep body
}

func newBatchPass(seed uint64) (batchPass, error) {
	r := newRand(seed, streamBatch)
	var p batchPass
	for _, e := range experiments.Registry() {
		be := batchExperiment{name: e.Name, path: "/v2/experiments/" + e.Name}
		if seededExperiments[e.Name] {
			s := 1 + r.Int64N(1_000_000)
			be.seed = &s
			be.path += "?seed=" + strconv.FormatInt(s, 10)
		}
		p.experiments = append(p.experiments, be)
	}
	req := wire.SweepRequest{
		Scenario: wire.Scenario{
			Version:  wire.Version,
			Workflow: wire.WorkflowSection{Name: "1deg"},
			Spot:     &wire.SpotSection{RatePerHour: 0.5, Seed: 1 + r.Int64N(1<<31), Discount: 0.7},
			Recovery: &wire.RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 5},
		},
		Axes: []wire.Axis{
			{Path: "workflow.name", Values: []any{"1deg", "2deg", "4deg"}},
			{Path: "storage.mode", Values: []any{"remote-io", "regular", "cleanup"}},
			{Path: "fleet.processors", Values: []any{8, 32, 128}},
			{Path: "spot.rate_per_hour", Values: []any{0.25, 1.0}},
			{Path: "policies.checkpoint", Values: []any{"interval", "adaptive"}},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		return batchPass{}, err
	}
	p.sweep = body
	return p, nil
}
