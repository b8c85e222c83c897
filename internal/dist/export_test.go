package dist

import "dmac/internal/dep"

// Reset clears the statistics.
func (n *NetStats) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.s = Snapshot{}
}

// AliveWorkers returns the number of workers still in the cluster.
func (c *Cluster) AliveWorkers() int {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	return c.aliveLocked()
}

// LoadImbalance reports the skew of the matrix's stored bytes across
// workers under its placement: max worker load divided by the mean. 1 means
// perfectly balanced; real graph datasets with power-law degrees are skewed
// under one-dimensional partitioning, which is the effect the paper points
// to when measured block-size thresholds deviate slightly from Eq. 3
// (Section 6.3). Broadcast replicas are balanced by construction.
func (c *Cluster) LoadImbalance(m *DistMatrix) float64 {
	if m.Scheme == dep.Broadcast {
		return 1
	}
	loads := make([]int64, c.cfg.Workers)
	for bi := 0; bi < m.BlockRows(); bi++ {
		for bj := 0; bj < m.BlockCols(); bj++ {
			loads[c.Owner(m, bi, bj)] += m.BlockBytes(bi, bj)
		}
	}
	var max, total int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(c.cfg.Workers)
	return float64(max) / mean
}
