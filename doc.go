// Package spacesim reproduces "The Space Simulator: Modeling the Universe
// from Supernovae to Cosmology" (Warren, Fryer & Goda, SC 2003) as a Go
// library: the hashed oct-tree parallel N-body code and its SPH supernova
// and cosmology applications, plus a virtual-time cluster simulator that
// stands in for the 294-node Pentium 4 / Gigabit Ethernet machine the paper
// describes. See README.md for the tour and DESIGN.md for the system
// inventory; cmd/ssbench regenerates every table and figure and checks it
// against the paper (EXPERIMENTS.md).
package spacesim
