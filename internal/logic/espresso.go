package logic

import "math/bits"

// Minimize runs an espresso-style heuristic two-level minimization of
// the ON-set on against the don't-care set dc (dc may be nil). It
// returns a cover equivalent to on over the care space: the result
// covers every ON minterm, never intersects the OFF-set, and may absorb
// DC minterms. The loop is the classic EXPAND → IRREDUNDANT → REDUCE
// iteration, stopping when the cost (cubes, then literals) no longer
// improves. The covers are packed into positional cubes on entry and
// unpacked on exit.
func Minimize(on, dc *Cover) *Cover {
	if on == nil {
		panic("logic: Minimize with nil ON-set")
	}
	if len(on.Cubes) == 0 {
		return NewCover(on.NumVars)
	}
	k := newKernel(on.NumVars)
	// care = ON ∪ DC is the region any expanded cube must stay inside.
	// Working with containment against care avoids ever computing the
	// OFF-set complement, which can blow up at the variable counts the
	// synthesis flow reaches (≈35 variables for the scf benchmark).
	care := k.pack(nil, on.Cubes)
	f := k.singleCubeContain(care) // a sorted copy; care stays intact
	if dc != nil {
		care = k.pack(care, dc.Cubes)
	}
	d := care[len(on.Cubes)*k.s:]

	f = k.expand(f, care)
	f = k.irredundant(f, d)
	bestCubes, bestLits := k.count(f), k.coverLiterals(f)
	for iter := 0; iter < 12; iter++ {
		k.reduce(f, d)
		f = k.expand(f, care)
		f = k.irredundant(f, d)
		c, l := k.count(f), k.coverLiterals(f)
		if c > bestCubes || (c == bestCubes && l >= bestLits) {
			break
		}
		bestCubes, bestLits = c, l
	}
	return &Cover{NumVars: on.NumVars, Cubes: k.unpack(f)}
}

// expand raises literals of each cube, most literals first, to Dash as
// long as the raised cube stays inside the care region (ON ∪ DC), then
// drops cubes that became covered by a single other cube. Raising one
// literal can unlock or block another, so each cube's scan repeats
// until no literal can be raised. Every cube of f already lies inside
// care, so a raise is legal iff the half it adds, the cube with that
// literal flipped, does too.
//
// A half differs from its cube in one variable, so only care cubes
// that conflict with the cube in at most one variable can meet it; the
// containment tests run against that near list, kept in care's order,
// which covered would otherwise reach by skipping every other cube as
// disjoint. A raise can bring a cube from two conflicts to one, so the
// list is rebuilt after each one.
func (k *kernel) expand(f, care []uint64) []uint64 {
	f = k.sorted(f, true)
	half := make([]uint64, k.s)
	var near []uint64
	for i := 0; i < k.count(f); i++ {
		c := k.cube(f, i)
		near = k.nearCubes(near[:0], care, c)
		for raised := true; raised; {
			raised = false
			for j := 0; j < k.w; j++ {
				for lits := c[j] ^ c[k.w+j]; lits != 0; lits &= lits - 1 {
					bit := lits & -lits
					copy(half, c)
					half[j] ^= bit
					half[k.w+j] ^= bit
					if k.covered(half, near, -1, nil, nil) {
						c[j] |= bit
						c[k.w+j] |= bit
						raised = true
						near = k.nearCubes(near[:0], care, c)
					}
				}
			}
		}
	}
	return k.singleCubeContain(f)
}

// nearCubes appends to dst, in order, the cubes of f that conflict
// with cube c (have disjoint values) in at most one variable.
func (k *kernel) nearCubes(dst, f, c []uint64) []uint64 {
	w, s, mask := k.w, k.s, k.mask
	cz, co := c[:w:w], c[w:s:s]
	for at := 0; at < len(f); at += s {
		conflicts := 0
		for j, m := range mask {
			if x := m &^ (f[at+j]&cz[j] | f[at+w+j]&co[j]); x != 0 {
				conflicts += bits.OnesCount64(x)
				if conflicts > 1 {
					break
				}
			}
		}
		if conflicts <= 1 {
			dst = append(dst, f[at:at+s]...)
		}
	}
	return dst
}

// irredundant removes cubes that are covered by the union of the other
// cubes and the DC set, scanning largest cubes last so essential small
// cubes survive.
func (k *kernel) irredundant(f, dc []uint64) []uint64 {
	removed := make([]bool, k.count(f))
	for _, i := range k.order(f, true) {
		removed[i] = k.covered(k.cube(f, i), f, i, removed, dc)
	}
	kept := 0
	for i, r := range removed {
		if !r {
			copy(k.cube(f, kept), k.cube(f, i))
			kept++
		}
	}
	return f[:kept*k.s]
}

// reduce shrinks each cube to the supercube of the part of it not
// covered by the rest of the cover plus the DC set, opening room for a
// different EXPAND direction on the next pass. That part is the cube
// times the complement of the rest's cofactor against it.
func (k *kernel) reduce(f, dc []uint64) {
	for i := 0; i < k.count(f); i++ {
		c := k.cube(f, i)
		k.stack = append(k.stack[:0], make([]uint64, k.s)...) // the result slot
		if k.pushCofactors(f, c, i, nil) || k.pushCofactors(dc, c, -1, nil) {
			continue // fully redundant; IRREDUNDANT will take it
		}
		if k.complementSupercube(1, k.top(), 0) {
			for j, r := range k.cube(k.stack, 0) {
				c[j] &= r
			}
		}
	}
}

// Equivalent reports whether covers f and g implement the same function
// modulo the don't-care set dc: they must agree on every minterm
// outside dc. dc may be nil.
func Equivalent(f, g, dc *Cover) bool {
	if dc == nil {
		dc = NewCover(f.NumVars)
	}
	k := newKernel(f.NumVars)
	pf, pg, pd := k.pack(nil, f.Cubes), k.pack(nil, g.Cubes), k.pack(nil, dc.Cubes)
	// f ⊆ g ∪ dc and g ⊆ f ∪ dc.
	for _, pair := range [2][2][]uint64{{pf, pg}, {pg, pf}} {
		for i := 0; i < k.count(pair[0]); i++ {
			if !k.covered(k.cube(pair[0], i), pair[1], -1, nil, pd) {
				return false
			}
		}
	}
	return true
}
