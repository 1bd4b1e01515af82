// Router tier: class-aware placement of admitted jobs over the
// cluster's runtime shards. The placement rule lifts the paper's
// task-class rule to cluster scope — a job class goes to the shard
// whose current plan has headroom for it, and a class no shard's plan
// knows goes to the shard with the fastest ladder (the paper's
// "unknown class → fastest group"). Backpressure-aware spillover walks
// the remaining healthy shards before rejecting, and shard-level drain
// removes a shard from every candidate order without interrupting the
// rest of the cluster.
package serve

import "sort"

// Routing-policy identifiers for Config.Routing (and the cluster
// sweep's routing axis — internal/sweep uses the same names).
const (
	// RouteClass is the workload-aware rule above (the default).
	RouteClass = "class"
	// RouteRR is blind round-robin over healthy shards — the baseline
	// class-aware routing is compared against.
	RouteRR = "rr"
	// RouteLeast sends every job to the healthy shard with the most
	// in-flight headroom, ignoring classes.
	RouteLeast = "least"
)

// RoutingPolicies returns the canonical routing-policy identifiers.
func RoutingPolicies() []string { return []string{RouteClass, RouteRR, RouteLeast} }

// ShardStats is one shard's slice of /v1/shards: admission counters,
// the classes its current plan covers, and its energy roll-up.
type ShardStats struct {
	Shard      int     `json:"shard"`
	Workers    int     `json:"workers"`
	FastestGHz float64 `json:"fastest_ghz"`
	Draining   bool    `json:"draining"`
	Queued     int     `json:"queued_tasks"`
	Inflight   int     `json:"inflight_tasks"`
	Admitted   uint64  `json:"admitted_jobs"`
	Completed  uint64  `json:"completed_jobs"`
	Timeouts   uint64  `json:"timeout_jobs"`
	Batches    uint64  `json:"batches"`
	Tasks      uint64  `json:"tasks_run"`
	Cancelled  uint64  `json:"tasks_cancelled"`
	// PlanClasses are the task classes the shard's current plan
	// allocated c-groups for (profiled in its last batch) — the router's
	// placement signal.
	PlanClasses []string `json:"plan_classes"`
	// EnergyJ is the shard's total modeled energy; EnergyAttrJ the part
	// attributed to task classes (busy-state), OverheadJ the remainder
	// (search, dry spin, barrier halt, base draw). EnergyAttrJ +
	// OverheadJ == EnergyJ.
	EnergyJ     float64 `json:"energy_j"`
	EnergyAttrJ float64 `json:"energy_attr_j"`
	OverheadJ   float64 `json:"energy_overhead_j"`
}

// RouterStats is the /v1/shards body: the routing policy, per-shard
// stats and the cluster energy roll-up.
type RouterStats struct {
	Routing string       `json:"routing"`
	Shards  []ShardStats `json:"shards"`
	Energy  EnergyRollup `json:"energy"`
}

// EnergyRollup is the cluster-wide energy account: for every shard,
// attributed + overhead equals that shard's total, and the shard
// totals sum to TotalJ — the closure invariant the eewa_check build
// verifies.
type EnergyRollup struct {
	TotalJ      float64       `json:"total_j"`
	AttributedJ float64       `json:"attributed_j"`
	OverheadJ   float64       `json:"overhead_j"`
	Shards      []ShardEnergy `json:"shards"`
}

// ShardEnergy is one shard's slice of the cluster energy roll-up.
type ShardEnergy struct {
	Shard       int     `json:"shard"`
	TotalJ      float64 `json:"total_j"`
	AttributedJ float64 `json:"attributed_j"`
	OverheadJ   float64 `json:"overhead_j"`
}

// ShardStats returns every shard's point-in-time counters.
func (s *Server) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.snapshot()
	}
	return out
}

// RouterStats returns the routing tier's view of the cluster.
func (s *Server) RouterStats() RouterStats {
	return RouterStats{
		Routing: s.cfg.Routing,
		Shards:  s.ShardStats(),
		Energy:  s.EnergyRollup(),
	}
}

// EnergyRollup sums the per-shard energy accounts into the cluster
// total.
func (s *Server) EnergyRollup() EnergyRollup {
	r := EnergyRollup{Shards: make([]ShardEnergy, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.Lock()
		se := ShardEnergy{Shard: i, TotalJ: sh.energyTotalJ, AttributedJ: sh.energyAttrJ, OverheadJ: sh.energyOverheadJ}
		sh.mu.Unlock()
		r.Shards[i] = se
		r.TotalJ += se.TotalJ
		r.AttributedJ += se.AttributedJ
		r.OverheadJ += se.OverheadJ
	}
	return r
}

// accept is admission's first step: refuse a job on sight (the server is
// draining, the deadline has passed), else fill it — the expensive step
// a refused job must not pay for. The caller then stamps j.enqueued,
// once per request, and places the job.
func (s *Server) accept(j *job) *Rejection {
	if s.draining.Load() {
		return &Rejection{Status: 503, Reason: "draining",
			Msg: "server is draining, not admitting new jobs"}
	}
	if !j.deadline.IsZero() && j.ExpiredBy(s.now()) {
		// Admission fast-fail: never queue a job only to drop it (DESIGN.md §9).
		return &Rejection{Status: 504, Reason: "expired",
			Msg: "deadline already expired at admission"}
	}
	j.fill()
	return nil
}

// place is admission's second step: the candidate order comes from the
// routing policy, and the first shard to accept wins (backpressure-aware
// spillover). When every candidate rejects, the preferred shard's
// rejection is returned; when every shard is draining, the whole
// cluster is. The authoritative drain, queue-depth and in-flight checks
// stay in shard.admit, under the shard's admission lock.
func (s *Server) place(j *job) *Rejection {
	if len(s.shards) == 1 {
		// Single-shard fast path: no candidate order to build, no view
		// snapshot — the admission outcome (and every message) is
		// identical to the general path below with one healthy shard.
		sh := s.shards[0]
		if sh.draining.Load() {
			return &Rejection{Status: 503, Reason: "draining",
				Msg: "every shard is draining, not admitting new jobs"}
		}
		return sh.admit(j)
	}
	order := s.shardOrder(j.req.Func)
	if len(order) == 0 {
		return &Rejection{Status: 503, Reason: "draining",
			Msg: "every shard is draining, not admitting new jobs"}
	}
	var firstRej *Rejection
	for k, idx := range order {
		rej := s.shards[idx].admit(j)
		if rej == nil {
			s.ro.routed(idx)
			if k > 0 {
				s.ro.spilled()
			}
			return nil
		}
		if firstRej == nil || (firstRej.Status == 503 && rej.Status != 503) {
			firstRej = rej
		}
	}
	return firstRej
}

// route admits one validated job: accept, stamp, place.
func (s *Server) route(j *job) *Rejection {
	if rej := s.accept(j); rej != nil {
		return rej
	}
	j.enqueued = s.now()
	return s.place(j)
}

// shardOrder returns the candidate shard indices for a job of `class`,
// best first. Draining shards never appear; with one shard the order
// is always [0], so the single-shard cluster admits exactly like the
// pre-router server.
func (s *Server) shardOrder(class string) []int {
	views := make([]ShardView, 0, len(s.shards))
	for _, sh := range s.shards {
		if !sh.draining.Load() {
			views = append(views, sh.view(class))
		}
	}
	var rr uint64
	if s.cfg.Routing == RouteRR && len(views) > 1 {
		rr = s.rr.Add(1) - 1
	}
	return RankShards(s.cfg.Routing, views, rr)
}

// ShardView is one healthy shard as a routing decision sees it.
type ShardView struct {
	Index    int
	Headroom int     // in-flight budget left; only its order matters
	Knows    bool    // the job's class ran in the shard's last batch
	Fastest  float64 // top rung of the shard's ladder
}

// RankShards is the routing rule: it orders the candidate shards for a
// job under routing, best first, and returns their indices. It sorts
// views in place. rr is the round-robin cursor, read by RouteRR only.
// The live router and the cluster sweep both place by it.
func RankShards(routing string, views []ShardView, rr uint64) []int {
	if len(views) == 0 {
		return nil
	}
	switch routing {
	case RouteRR:
		start := int(rr % uint64(len(views)))
		order := make([]int, 0, len(views))
		for k := range views {
			order = append(order, views[(start+k)%len(views)].Index)
		}
		return order
	case RouteLeast:
		sort.SliceStable(views, func(a, b int) bool {
			if views[a].Headroom != views[b].Headroom {
				return views[a].Headroom > views[b].Headroom
			}
			return views[a].Index < views[b].Index
		})
	default: // RouteClass
		anyKnows := false
		for _, v := range views {
			anyKnows = anyKnows || v.Knows
		}
		sort.SliceStable(views, func(a, b int) bool {
			va, vb := views[a], views[b]
			if anyKnows {
				// Known class: its planning shards first, each by
				// headroom; spillover targets follow, also by headroom.
				if va.Knows != vb.Knows {
					return va.Knows
				}
			} else if va.Fastest != vb.Fastest {
				// Class unknown cluster-wide: fastest ladder first — the
				// paper's "unknown class → fastest group" at cluster scope.
				return va.Fastest > vb.Fastest
			}
			if va.Headroom != vb.Headroom {
				return va.Headroom > vb.Headroom
			}
			return va.Index < vb.Index
		})
	}
	order := make([]int, len(views))
	for i, v := range views {
		order[i] = v.Index
	}
	return order
}
