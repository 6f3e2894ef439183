package model

// CrashedBy returns F(t): the set of processes that have crashed by time t.
func (f *FailurePattern) CrashedBy(t Time) ProcSet {
	var s ProcSet
	for i, ct := range f.crashAt {
		if ct <= t {
			s = s.Add(ProcessID(i + 1))
		}
	}
	return s
}

// Values returns the elements in increasing order. The slice is a copy.
func (s ValueSet) Values() []Value {
	out := make([]Value, len(s.vs))
	copy(out, s.vs)
	return out
}
