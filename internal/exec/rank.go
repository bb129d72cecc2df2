package exec

// The victim ranking's sort: a port of the standard library's
// sort.SliceStable.

// victimRank is the order pickVictims ranks its candidates in: perm
// holds candidate indices, and the sort moves only them.  The
// comparator reads score by position, not by candidate (see
// pickVictims), so what the ranking comes to depends on the exact
// sequence of comparisons and swaps the sort makes, not only on the
// order the comparator defines.  sort is therefore an exact port of
// sort.SliceStable (insertion-sorted blocks of 20, then SymMerge
// passes), with the same comparisons and swaps in the same sequence, on
// concrete slices instead of through reflection and closures.
type victimRank struct {
	score []float64 // by position
	perm  []int
}

// less is pickVictims' comparator: the larger score first, then the
// larger task ID.  The candidates are in ascending task order, so the
// larger candidate index is the larger task ID.
func (v victimRank) less(i, j int) bool {
	if v.score[i] != v.score[j] {
		return v.score[i] > v.score[j]
	}
	return v.perm[i] > v.perm[j]
}

func (v victimRank) swap(i, j int) { v.perm[i], v.perm[j] = v.perm[j], v.perm[i] }

// sort sorts perm exactly as sort.SliceStable(perm, v.less) does.
func (v victimRank) sort() {
	n := len(v.perm)
	blockSize := 20
	a, b := 0, blockSize
	for b <= n {
		v.insertionSort(a, b)
		a = b
		b += blockSize
	}
	v.insertionSort(a, n)
	for blockSize < n {
		a, b = 0, 2*blockSize
		for b <= n {
			v.symMerge(a, a+blockSize, b)
			a = b
			b += 2 * blockSize
		}
		if m := a + blockSize; m < n {
			v.symMerge(a, m, n)
		}
		blockSize *= 2
	}
}

func (v victimRank) insertionSort(a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && v.less(j, j-1); j-- {
			v.swap(j, j-1)
		}
	}
}

// symMerge merges the sorted perm[a:m] and perm[m:b] with the SymMerge
// algorithm of Kim and Kutzner (ESA 2004), as the standard library
// does; it requires a < m && m < b.
func (v victimRank) symMerge(a, m, b int) {
	if m-a == 1 {
		// Insert perm[a] into perm[m:b] before the first element not
		// less than it.
		i, j := m, b
		for i < j {
			h := int(uint(i+j) >> 1)
			if v.less(h, a) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := a; k < i-1; k++ {
			v.swap(k, k+1)
		}
		return
	}
	if b-m == 1 {
		// Insert perm[m] into perm[a:m] before the first element greater
		// than it.
		i, j := a, m
		for i < j {
			h := int(uint(i+j) >> 1)
			if !v.less(m, h) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := m; k > i; k-- {
			v.swap(k, k-1)
		}
		return
	}
	mid := int(uint(a+b) >> 1)
	n := mid + m
	var start, r int
	if m > mid {
		start, r = n-b, mid
	} else {
		start, r = a, m
	}
	p := n - 1
	for start < r {
		c := int(uint(start+r) >> 1)
		if !v.less(p-c, c) {
			start = c + 1
		} else {
			r = c
		}
	}
	end := n - start
	if start < m && m < end {
		v.rotate(start, m, end)
	}
	if a < start && start < mid {
		v.symMerge(a, start, mid)
	}
	if mid < end && end < b {
		v.symMerge(mid, end, b)
	}
}

// rotate turns perm[a:m], perm[m:b] into perm[m:b], perm[a:m] by block
// swaps; it requires a < m && m < b.
func (v victimRank) rotate(a, m, b int) {
	i, j := m-a, b-m
	for i != j {
		if i > j {
			v.swapRange(m-i, m, j)
			i -= j
		} else {
			v.swapRange(m-i, m+j-i, i)
			j -= i
		}
	}
	v.swapRange(m-i, m, i)
}

func (v victimRank) swapRange(a, b, n int) {
	for i := 0; i < n; i++ {
		v.swap(a+i, b+i)
	}
}
