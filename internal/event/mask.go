package event

import (
	"math/bits"
	"slices"
)

// This file is the exact engine for compiled DNFs over at most 64 local
// slots: the algorithm of prob.go — memoized Shannon expansion on the
// most frequent event with independent-component decomposition — run on
// one pos and one neg word per clause, so that cofactoring, absorption,
// connectivity and pivot selection are word operations and the
// recursion never touches a literal list.

// mclause is a conjunction over the local slots: the events it needs
// true and the events it needs false.
type mclause struct{ pos, neg uint64 }

func (c mclause) vars() uint64 { return c.pos | c.neg }

// cmpMask is the canonical order of mask clause lists: by variable set,
// then by the negated subset. A clause contained in another sorts before
// it, and clearing one bit that a run of clauses shares keeps the run's
// order — cofactoring relies on both.
func cmpMask(a, b mclause) int {
	if av, bv := a.vars(), b.vars(); av != bv {
		if av < bv {
			return -1
		}
		return 1
	}
	switch {
	case a.neg < b.neg:
		return -1
	case a.neg > b.neg:
		return 1
	}
	return 0
}

// maskClauses converts normalized literal-list clauses over at most 64
// slots to mask form, in mask order.
func maskClauses(cls []cclause) []mclause {
	out := make([]mclause, len(cls))
	for i, c := range cls {
		for _, l := range c {
			if l&1 == 1 {
				out[i].neg |= 1 << uint(l>>1)
			} else {
				out[i].pos |= 1 << uint(l>>1)
			}
		}
	}
	slices.SortFunc(out, cmpMask)
	return out
}

// memoSlot is one entry of the mask engine's memo: the probability of
// an expanded clause list, its hash, and where its copy of the list is
// kept (block at>>memoBlockBits, from offset at&(memoBlock-1), n
// clauses), compared in full on every lookup so that a hash collision
// costs a recomputation and never a wrong answer. n == 0 marks an empty
// slot. Holding no pointer, the table costs the collector nothing to
// scan.
type memoSlot struct {
	hash  uint64
	p     float64
	at, n uint32
}

const (
	memoMinSlots  = 16 // table size at the first store
	memoBlockBits = 10
	memoBlock     = 1 << memoBlockBits // clauses per block of key storage, at most
	memoMinBlock  = 64                 // clauses in the first block; later ones double
)

// maskEngine carries the per-call state of one exact evaluation over
// masks. Working clause lists live on stack, pushed by the node that
// builds them and popped when it returns; the memo is an open-addressed
// table, allocated on the first store, whose keys are appended to
// blocks that are never moved. Evaluations of one or two clauses touch
// none of it.
type maskEngine struct {
	walk
	stack  []mclause
	table  []memoSlot // power-of-two length, at most 3/4 full
	used   int
	blocks [][]mclause // key storage; the last block is being filled
}

// clauseProb returns the probability of a single clause: the product of
// its literal probabilities (1 for the empty clause).
func (e *maskEngine) clauseProb(c mclause) float64 {
	p := 1.0
	for m := c.pos; m != 0; m &= m - 1 {
		p *= e.probs[bits.TrailingZeros64(m)]
	}
	for m := c.neg; m != 0; m &= m - 1 {
		p *= 1 - e.probs[bits.TrailingZeros64(m)]
	}
	return p
}

// prob computes P(∨ cls) for a canonical clause list.
func (e *maskEngine) prob(cls []mclause) float64 {
	e.step()
	switch len(cls) {
	case 0:
		return 0
	case 1:
		return e.clauseProb(cls[0])
	case 2:
		// P(a) + P(b) − P(a∧b); rounding can carry the sum an ulp past 1.
		a, b := cls[0], cls[1]
		p := e.clauseProb(a) + e.clauseProb(b)
		if a.pos&b.neg == 0 && a.neg&b.pos == 0 {
			p -= e.clauseProb(mclause{a.pos | b.pos, a.neg | b.neg})
		}
		return min(p, 1)
	}
	h := hashMasks(cls)
	if p, ok := e.lookup(h, cls); ok {
		return p
	}
	var p float64
	var groups [64]uint64
	if n := connect(cls, &groups); n > 1 {
		p = e.decompose(cls, groups[:n])
	} else {
		slot := mostFrequentSlot(cls)
		pe := e.probs[slot]
		p = pe*e.cofactor(cls, 1<<uint(slot), true) + (1-pe)*e.cofactor(cls, 1<<uint(slot), false)
	}
	e.store(h, cls, p)
	return p
}

// connect partitions the variables of cls into the classes linked by
// shared clauses, writing one mask per class to groups and returning
// their number: every clause merges the classes it meets.
func connect(cls []mclause, groups *[64]uint64) int {
	n := 0
	for _, c := range cls {
		v, k := c.vars(), 0
		for _, g := range groups[:n] {
			if g&v != 0 {
				v |= g
			} else {
				groups[k] = g
				k++
			}
		}
		groups[k] = v
		n = k + 1
	}
	return n
}

// decompose evaluates a clause list that falls into several variable
// classes: clauses of different classes share no event, so the
// disjunctions are independent and P(∨) = 1 − ∏(1 − P(component)).
// A component keeps its clauses' order, so it is canonical.
func (e *maskEngine) decompose(cls []mclause, groups []uint64) float64 {
	e.components += int64(len(groups))
	q := 1.0
	for _, g := range groups {
		mark := len(e.stack)
		for _, c := range cls {
			if c.vars()&g != 0 {
				e.stack = append(e.stack, c)
			}
		}
		q *= 1 - e.prob(e.stack[mark:])
		e.stack = e.stack[:mark]
	}
	return 1 - q
}

// mostFrequentSlot returns the slot occurring in the largest number of
// clauses, breaking ties toward the smallest slot (the event interned
// first) for determinism. Occurrences are counted for all 64 slots at
// once: planes[i] holds bit i of every slot's count, and adding a
// clause is a ripple-carry increment of the slots in its variable set.
func mostFrequentSlot(cls []mclause) int {
	var planes [32]uint64
	top := 0
	for _, c := range cls {
		i := 0
		for carry := c.vars(); carry != 0; i++ {
			planes[i], carry = planes[i]^carry, planes[i]&carry
		}
		top = max(top, i)
	}
	// The largest count: keep, plane by plane from the most significant
	// bit, the slots that have the bit set whenever some candidate does.
	best := ^uint64(0)
	for i := top - 1; i >= 0; i-- {
		if b := best & planes[i]; b != 0 {
			best = b
		}
	}
	return bits.TrailingZeros64(best)
}

// cofactor returns the probability of cls with the event at bit fixed
// to v. The residual list is built canonical in one pass of mask tests
// per clause: clauses without the event keep their order; those whose
// literal became true lose it and keep theirs (cmpMask), so the two
// runs only need merging; and the only absorptions that can be new are
// of an untouched clause by a shrunk one — anything else would already
// have held in cls.
func (e *maskEngine) cofactor(cls []mclause, bit uint64, v bool) float64 {
	mark := len(e.stack)
	for _, c := range cls {
		// A clause with the opposite literal is false and is dropped.
		if v && c.pos&bit != 0 {
			c.pos &^= bit
		} else if !v && c.neg&bit != 0 {
			c.neg &^= bit
		} else {
			continue
		}
		if c.vars() == 0 {
			e.stack = e.stack[:mark]
			return 1 // an empty clause: the cofactor is constantly true
		}
		e.stack = append(e.stack, c)
	}
	shrunk := e.stack[mark:]
	i := 0
untouched:
	for _, c := range cls {
		if c.vars()&bit != 0 {
			continue
		}
		for _, s := range shrunk {
			if s.pos&^c.pos == 0 && s.neg&^c.neg == 0 {
				continue untouched
			}
		}
		for ; i < len(shrunk) && cmpMask(shrunk[i], c) < 0; i++ {
			e.stack = append(e.stack, shrunk[i])
		}
		e.stack = append(e.stack, c)
	}
	e.stack = append(e.stack, shrunk[i:]...)
	p := e.prob(e.stack[mark+len(shrunk):])
	e.stack = e.stack[:mark]
	return p
}

// hashMasks hashes a clause list word by word with a multiplier whose
// products carry every input bit into the high bits, which index the
// memo table.
func hashMasks(cls []mclause) uint64 {
	const mult = 0x9e3779b97f4a7c15
	h := uint64(len(cls))
	for _, c := range cls {
		h = (h ^ c.pos) * mult
		h = (h ^ c.neg) * mult
	}
	return h
}

// home returns the slot of a power-of-two table where probing for h
// starts.
func home(table []memoSlot, h uint64) int {
	return int(h >> uint(64-bits.TrailingZeros(uint(len(table)))))
}

// lookup returns the memoized probability of cls.
func (e *maskEngine) lookup(h uint64, cls []mclause) (float64, bool) {
	if e.table == nil {
		return 0, false
	}
	for i := home(e.table, h); ; i = (i + 1) & (len(e.table) - 1) {
		switch s := &e.table[i]; {
		case s.n == 0:
			return 0, false
		case s.hash != h:
		case slices.Equal(e.blocks[s.at>>memoBlockBits][s.at&(memoBlock-1):][:s.n], cls):
			e.hits++
			return s.p, true
		default:
			e.collisions++
		}
	}
}

// insert puts s, whose key the table does not hold, in the first free
// slot of its probe sequence.
func insert(table []memoSlot, s memoSlot) {
	i := home(table, s.hash)
	for table[i].n != 0 {
		i = (i + 1) & (len(table) - 1)
	}
	table[i] = s
}

// store memoizes the probability of cls, which lookup just missed.
func (e *maskEngine) store(h uint64, cls []mclause, p float64) {
	e.misses++
	if 4*(e.used+1) > 3*len(e.table) {
		old := e.table
		e.table = make([]memoSlot, max(memoMinSlots, 2*len(old)))
		for _, s := range old {
			if s.n != 0 {
				insert(e.table, s)
			}
		}
	}
	// A list longer than a block gets a block of its own, at offset 0.
	last := len(e.blocks) - 1
	if last < 0 || cap(e.blocks[last])-len(e.blocks[last]) < len(cls) {
		size := memoMinBlock
		if last >= 0 {
			size = min(2*cap(e.blocks[last]), memoBlock)
		}
		e.blocks = append(e.blocks, make([]mclause, 0, max(size, len(cls))))
		last++
	}
	at := uint32(last<<memoBlockBits | len(e.blocks[last]))
	e.blocks[last] = append(e.blocks[last], cls...)
	insert(e.table, memoSlot{hash: h, p: p, at: at, n: uint32(len(cls))})
	e.used++
}
