package reach

// NodeCount returns the number of nodes the analysis's BDD manager has
// allocated, terminals included.
func NodeCount(a *Analysis) int { return a.mgr.Size() }
