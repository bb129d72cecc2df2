package exec

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/policy"
)

// sliceStableRank ranks as pickVictims did with sort.SliceStable, by
// task ID on ties, which victimRank.sort must reproduce comparison for
// comparison.
func sliceStableRank(score []float64, cands []policy.VictimCandidate) []int {
	perm := make([]int, len(cands))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		if score[i] != score[j] {
			return score[i] > score[j]
		}
		return cands[perm[i]].Task > cands[perm[j]].Task
	})
	return perm
}

// checkVictimRank fails t unless victimRank.sort orders the candidates
// exactly as sort.SliceStable does.
func checkVictimRank(t *testing.T, score []float64, cands []policy.VictimCandidate) {
	t.Helper()
	want := sliceStableRank(score, cands)
	got := make([]int, len(cands))
	for i := range got {
		got[i] = i
	}
	victimRank{score: score, perm: got}.sort()
	if !slices.Equal(got, want) {
		t.Fatalf("%d candidates, scores %v: ranked %v, sort.SliceStable ranks %v", len(cands), score, got, want)
	}
}

// randomVictims draws n candidates with ascending task IDs, as the
// running bitset yields them, and scores from levels distinct values,
// so ties are common.
func randomVictims(rng *rand.Rand, n, levels int) ([]float64, []policy.VictimCandidate) {
	score := make([]float64, n)
	cands := make([]policy.VictimCandidate, n)
	id := 0
	for i := range cands {
		id += 1 + rng.Intn(40)
		cands[i].Task = dag.TaskID(id)
		score[i] = float64(rng.Intn(levels))
	}
	return score, cands
}

// TestVictimRankMatchesSliceStable checks the port against the standard
// library on every candidate count from 0 to 300, which crosses the
// 20-element insertion blocks and several merge levels, with scores
// drawn from 1 to 6 levels.
func TestVictimRankMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		for levels := 1; levels <= 6; levels++ {
			score, cands := randomVictims(rng, n, levels)
			checkVictimRank(t, score, cands)
		}
	}
}

// FuzzVictimOrder checks the port against the standard library on
// arbitrary candidates: each input byte is one candidate, its low three
// bits the score and the rest the gap to the previous task ID.
func FuzzVictimOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 3})
	f.Add([]byte{3, 1, 5})
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{19, 20, 21, 40, 41, 97, 160, 255} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		score := make([]float64, len(in))
		cands := make([]policy.VictimCandidate, len(in))
		id := 0
		for i, b := range in {
			id += 1 + int(b>>3)
			cands[i].Task = dag.TaskID(id)
			score[i] = float64(b & 7)
		}
		checkVictimRank(t, score, cands)
	})
}
