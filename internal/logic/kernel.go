package logic

import (
	"math/bits"
	"sort"
)

// The two-level kernel works on positional cubes (Brayton et al.,
// "Logic Minimization Algorithms for VLSI Synthesis", 1984). Variable i
// owns bit i of a zero plane ("may be 0") and bit i of a one plane
// ("may be 1"): a literal sets one of the two bits, Dash sets both.
// Each plane is w = ceil(n/64) words and a cube is its zero plane
// followed by its one plane, so a cover is one flat []uint64 of 2w-word
// cubes. Intersection, containment and cofactors are word operations.

// kernel holds the geometry for one variable count and the scratch
// stack that the tautology and complement recursions push their
// cofactors onto, one recursion level above the other.
type kernel struct {
	n, w, s  int      // variables, words per plane, words per cube
	mask     []uint64 // the bits of each plane word that hold variables
	stack    []uint64
	phases   []uint64 // splitVar: the variables seen positive, then negative
	pos, neg []int    // splitVar: per-variable literal counts, kept zero
}

func newKernel(n int) *kernel {
	w := max(1, (n+63)/64)
	k := &kernel{n: n, w: w, s: 2 * w, mask: make([]uint64, w), phases: make([]uint64, 2*w),
		pos: make([]int, n), neg: make([]int, n)}
	for i := 0; i < n; i++ {
		k.mask[i/64] |= 1 << uint(i%64)
	}
	return k
}

// pack appends the positional form of cubes to dst.
func (k *kernel) pack(dst []uint64, cubes []Cube) []uint64 {
	for _, c := range cubes {
		at := len(dst)
		dst = append(dst, make([]uint64, k.s)...)
		p := dst[at:]
		for i, v := range c {
			bit := uint64(1) << uint(i%64)
			if v != One {
				p[i/64] |= bit
			}
			if v != Zero {
				p[k.w+i/64] |= bit
			}
		}
	}
	return dst
}

// unpack converts a packed cover back to cubes.
func (k *kernel) unpack(f []uint64) []Cube {
	out := make([]Cube, k.count(f))
	vals := make([]Value, len(out)*k.n)
	for j := range out {
		c, d := k.cube(f, j), vals[j*k.n:(j+1)*k.n:(j+1)*k.n]
		for i := range d {
			z, o := c[i/64]>>uint(i%64)&1, c[k.w+i/64]>>uint(i%64)&1
			d[i] = Value(o + z&o) // Zero, One or Dash
		}
		out[j] = d
	}
	return out
}

func (k *kernel) count(f []uint64) int { return len(f) / k.s }

func (k *kernel) cube(f []uint64, i int) []uint64 { return f[i*k.s : (i+1)*k.s : (i+1)*k.s] }

// top is the number of cubes on the stack.
func (k *kernel) top() int { return len(k.stack) / k.s }

func (k *kernel) literals(c []uint64) int {
	n := 0
	for j := 0; j < k.w; j++ {
		n += bits.OnesCount64(c[j] ^ c[k.w+j])
	}
	return n
}

func (k *kernel) coverLiterals(f []uint64) int {
	n := 0
	for i := 0; i < k.count(f); i++ {
		n += k.literals(k.cube(f, i))
	}
	return n
}

// setUniverse makes c the all-Dash cube.
func (k *kernel) setUniverse(c []uint64) {
	copy(c, k.mask)
	copy(c[k.w:], k.mask)
}

// pushCofactors pushes the cofactor against d of every cube of f that
// intersects d, skipping cube skip and the cubes marked in drop (skip -1
// and drop nil keep all). It stops early, reporting true, once one
// cofactor is the universe.
func (k *kernel) pushCofactors(f, d []uint64, skip int, drop []bool) bool {
	w, s, mask := k.w, k.s, k.mask
	dz, do := d[:w:w], d[w:s:s]
	for i, at := 0, 0; at < len(f); i, at = i+1, at+s {
		cz, co := f[at:at+w:at+w], f[at+w:at+s:at+s]
		disjoint := false
		for j, m := range mask {
			if (cz[j]&dz[j])|(co[j]&do[j]) != m {
				disjoint = true
				break
			}
		}
		if disjoint || i == skip || drop != nil && drop[i] {
			continue
		}
		// Raising every literal of d to Dash is OR-ing in d's
		// complement, plane by plane.
		top := len(k.stack)
		k.stack = append(k.stack, f[at:at+s]...)
		p := k.stack[top:]
		univ := true
		for j, m := range mask {
			p[j] |= ^dz[j] & m
			p[w+j] |= ^do[j] & m
			univ = univ && p[j]&p[w+j] == m
		}
		if univ {
			return true
		}
	}
	return false
}

// covered reports whether cube d lies inside the union of f (less cube
// skip and the cubes marked in drop) and g: the cofactor of that union
// against d must be a tautology.
func (k *kernel) covered(d, f []uint64, skip int, drop []bool, g []uint64) bool {
	k.stack = k.stack[:0]
	if k.pushCofactors(f, d, skip, drop) || k.pushCofactors(g, d, -1, nil) {
		return true
	}
	return k.tautology(0, k.top())
}

// splitVar picks the variable to split stack cubes [lo,hi) on: the
// most binate one (in both phases most often; ties toward more
// literals), or -1 when the cubes are unate. With frequent set, a
// unate cover splits on its most frequent variable instead. univ
// reports a universe cube among the cubes, which ends the search.
func (k *kernel) splitVar(lo, hi int, frequent bool) (v int, univ bool) {
	clear(k.phases)
	pos, neg := k.phases[:k.w], k.phases[k.w:]
	for at := lo * k.s; at < hi*k.s; at += k.s {
		u := true
		for j, m := range k.mask {
			z, o := k.stack[at+j], k.stack[at+k.w+j]
			u = u && z&o == m
			pos[j] |= o &^ z
			neg[j] |= z &^ o
		}
		if u {
			return -1, true
		}
	}
	binate := false
	for j := range pos {
		binate = binate || pos[j]&neg[j] != 0
	}
	if !binate && !frequent {
		return -1, false
	}
	// Count the phases of the binate variables, or of all of them.
	if binate {
		for j := range pos {
			pos[j] &= neg[j]
			neg[j] = pos[j]
		}
	}
	for at := lo * k.s; at < hi*k.s; at += k.s {
		for j := range pos {
			z, o := k.stack[at+j], k.stack[at+k.w+j]
			for b := o &^ z & pos[j]; b != 0; b &= b - 1 {
				k.pos[j*64+bits.TrailingZeros64(b)]++
			}
			for b := z &^ o & neg[j]; b != 0; b &= b - 1 {
				k.neg[j*64+bits.TrailingZeros64(b)]++
			}
		}
	}
	best, bestScore := -1, 0
	for j := range pos {
		for b := pos[j] | neg[j]; b != 0; b &= b - 1 {
			i := j*64 + bits.TrailingZeros64(b)
			p, q := k.pos[i], k.neg[i]
			k.pos[i], k.neg[i] = 0, 0
			score := p + q
			if binate {
				score += min(p, q) * 1000
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
	}
	return best, false
}

// pushSplit pushes the Shannon cofactor of stack cubes [lo,hi) on
// variable v at the phase of plane (0 for v=0, 1 for v=1).
func (k *kernel) pushSplit(lo, hi, v, plane int) {
	wi, bit := v/64, uint64(1)<<uint(v%64)
	for at := lo * k.s; at < hi*k.s; at += k.s {
		if k.stack[at+plane*k.w+wi]&bit == 0 {
			continue
		}
		top := len(k.stack)
		k.stack = append(k.stack, k.stack[at:at+k.s]...)
		k.stack[top+wi] |= bit
		k.stack[top+k.w+wi] |= bit
	}
}

// tautology reports whether stack cubes [lo,hi), the top of the stack,
// cover every minterm: unate reduction plus Shannon expansion on the
// most binate variable.
func (k *kernel) tautology(lo, hi int) bool {
	if lo == hi {
		return false
	}
	v, univ := k.splitVar(lo, hi, false)
	if univ || v < 0 {
		// A unate cover is a tautology iff it holds the universe.
		return univ
	}
	for plane := 0; plane < 2; plane++ {
		k.pushSplit(lo, hi, v, plane)
		ok := k.tautology(hi, k.top())
		k.stack = k.stack[:hi*k.s]
		if !ok {
			return false
		}
	}
	return true
}

// complementSupercube writes to stack cube out (below lo, all zeros)
// the smallest cube containing the complement of stack cubes [lo,hi),
// the top of the stack, and reports whether that complement is
// non-empty; an empty one leaves out untouched. It splits like
// tautology: the supercube of x'·A + x·B is built from those of A, B.
func (k *kernel) complementSupercube(lo, hi, out int) bool {
	if lo == hi {
		k.setUniverse(k.cube(k.stack, out))
		return true
	}
	v, univ := k.splitVar(lo, hi, true)
	if univ {
		return false
	}
	// Two result slots above hi, then each phase's cofactor above them.
	k.stack = append(k.stack, make([]uint64, 2*k.s)...)
	var ok [2]bool
	for plane := 0; plane < 2; plane++ {
		k.pushSplit(lo, hi, v, plane)
		ok[plane] = k.complementSupercube(hi+2, k.top(), hi+plane)
		k.stack = k.stack[:(hi+2)*k.s]
	}
	// x'·A + x·B, where an empty complement left its slot all zeros.
	a, b, r := k.cube(k.stack, hi), k.cube(k.stack, hi+1), k.cube(k.stack, out)
	wi, bit := v/64, uint64(1)<<uint(v%64)
	a[k.w+wi] &^= bit
	b[wi] &^= bit
	for j := range r {
		r[j] = a[j] | b[j]
	}
	k.stack = k.stack[:hi*k.s]
	return ok[0] || ok[1]
}

// order returns the cube indices of f stably sorted by literal count,
// fewest first, or most first when desc.
func (k *kernel) order(f []uint64, desc bool) []int {
	idx, lits := make([]int, k.count(f)), make([]int, k.count(f))
	for i := range idx {
		idx[i], lits[i] = i, k.literals(k.cube(f, i))
		if desc {
			lits[i] = -lits[i]
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return lits[idx[a]] < lits[idx[b]] })
	return idx
}

// sorted returns a copy of f with its cubes in order(f, desc).
func (k *kernel) sorted(f []uint64, desc bool) []uint64 {
	out := make([]uint64, 0, len(f))
	for _, i := range k.order(f, desc) {
		out = append(out, k.cube(f, i)...)
	}
	return out
}

// singleCubeContain returns f, widest cubes first, without the cubes
// contained in a single other cube (of two equal cubes the first stays).
func (k *kernel) singleCubeContain(f []uint64) []uint64 {
	f = k.sorted(f, false)
	kept := 0
	for i := 0; i < k.count(f); i++ {
		c, contained := k.cube(f, i), false
		for j := 0; j < kept*k.s && !contained; j += k.s {
			contained = true // until a bit of c falls outside cube j
			for x, y := range c {
				contained = contained && y&^f[j+x] == 0
			}
		}
		if !contained {
			copy(k.cube(f, kept), c)
			kept++
		}
	}
	return f[:kept*k.s]
}
