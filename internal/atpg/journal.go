package atpg

// journal is one learning store: a map for lookups plus the order its
// keys arrived in. The order is what keeps fault boundaries exact: a
// mark is a length, rollback truncates to it, LearnCap evicts from the
// front, and snapshots list entries oldest first. Reads use m and
// order directly (has is for membership inside a condition); every
// write goes through a method, which keeps the two in step. The zero
// value is an empty store.
type journal[K comparable, V any] struct {
	m     map[K]V
	order []K
}

func (j *journal[K, V]) has(k K) bool {
	_, ok := j.m[k]
	return ok
}

// add stores v under k unless k is already present; the first value
// stays.
func (j *journal[K, V]) add(k K, v V) {
	if j.has(k) {
		return
	}
	if j.m == nil {
		j.m = map[K]V{}
	}
	j.m[k] = v
	j.order = append(j.order, k)
}

// keys returns a copy of the keys, oldest first.
func (j *journal[K, V]) keys() []K { return append([]K(nil), j.order...) }

// truncate rolls the store back to when it held n entries.
func (j *journal[K, V]) truncate(n int) {
	for _, k := range j.order[n:] {
		delete(j.m, k)
	}
	j.order = j.order[:n]
}

// evict drops the oldest entries until at most limit remain.
func (j *journal[K, V]) evict(limit int) {
	n := len(j.order) - limit
	if n <= 0 {
		return
	}
	for _, k := range j.order[:n] {
		delete(j.m, k)
	}
	j.order = append([]K(nil), j.order[n:]...)
}

// setOf rebuilds a key-only store from keys listed oldest first.
func setOf[K comparable](keys []K) journal[K, struct{}] {
	var j journal[K, struct{}]
	for _, k := range keys {
		j.add(k, struct{}{})
	}
	return j
}
