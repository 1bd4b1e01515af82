package profile

// Accessors only the tests read; the adjusters read the profile through
// Classes.

// Lookup returns the class for a function name, if the profiler has
// seen it this batch.
func (p *Profiler) Lookup(name string) (Class, bool) {
	rec, ok := p.records[name]
	if !ok || rec.class.Count == 0 {
		return Class{}, false
	}
	return rec.class, true
}

// TotalTasks returns how many task completions have been recorded.
func (p *Profiler) TotalTasks() int { return p.totalTasks }
