// Cluster topology: how a cell's task stream is split across its
// shards. Every task is placed by serve.RankShards, the rule
// internal/serve's router applies to live jobs, over views built from
// the simulated shards.

package sweep

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/task"
)

// splitWorkload routes w's tasks across shards batch by batch through
// serve.RankShards, the live router's rule, taking each task as a job
// of one and handing it to the first candidate (there are no admission
// bounds offline). The views come from the simulated shards: a shard
// knows a class if the class ran in the shard's previous batch (the
// live plan-class set), its headroom is minus the tasks already routed
// to it in this batch, its fastest rung is Freqs[0], and the cell keeps
// one round-robin cursor. Batches are barriers within a shard but not
// across shards. A shard routed no task in a batch skips it and keeps
// its previous batch's classes; a shard routed nothing at all stays
// idle.
func splitWorkload(w *task.Workload, mcs []machine.Config, routing string) []*task.Workload {
	shards := len(mcs)
	known := make([]map[string]bool, shards)
	views := make([]serve.ShardView, shards)
	parts := make([][]task.Batch, shards)
	var rr uint64
	for _, b := range w.Batches {
		assigned := make([][]task.Task, shards)
		for _, t := range b.Tasks {
			for i, mc := range mcs {
				views[i] = serve.ShardView{Index: i, Headroom: -len(assigned[i]), Knows: known[i][t.Class], Fastest: mc.Freqs[0]}
			}
			i := serve.RankShards(routing, views, rr)[0]
			rr++
			assigned[i] = append(assigned[i], t)
		}
		for i, ts := range assigned {
			if len(ts) == 0 {
				continue
			}
			parts[i] = append(parts[i], task.Batch{Tasks: ts})
			known[i] = map[string]bool{}
			for _, t := range ts {
				known[i][t.Class] = true
			}
		}
	}

	out := make([]*task.Workload, shards)
	for i := 0; i < shards; i++ {
		if len(parts[i]) == 0 {
			continue
		}
		out[i] = &task.Workload{
			Name:    fmt.Sprintf("%s/shard%d", w.Name, i),
			Batches: parts[i],
		}
	}
	return out
}
