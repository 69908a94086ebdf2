package reliability

// Counts tallies events by component for the install phase (install=true)
// or the operating period; the convergence tests hold Simulate to it.
func (s *Simulation) Counts(install bool) map[Component]int {
	out := map[Component]int{}
	for _, e := range s.Events {
		if (e.Month < 0) == install {
			out[e.Component]++
		}
	}
	return out
}
