package rt

// Levels returns a copy of the per-worker frequency levels the plan
// assigned for the runtime's last batch.
func (r *Runtime) Levels() []int { return append([]int(nil), r.levels...) }
