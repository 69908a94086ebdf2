package gravity

import "spacesim/internal/vec"

// Multipole is the truncated expansion of a particle aggregate: total mass,
// center of mass, and the traceless quadrupole tensor
// Q_ij = sum_k m_k (3 d_i d_j - |d|^2 delta_ij) about the center of mass.
// This is the cell payload of the hashed oct-tree (Section 4.1: "a
// truncated expansion to approximate the contribution of many bodies with
// a single interaction").
type Multipole struct {
	M   float64
	COM vec.V3
	Q   vec.Sym33
}

// FromBodies builds the multipole of a particle set.
func FromBodies(pos []vec.V3, mass []float64) Multipole {
	var mp Multipole
	for i := range pos {
		mp.M += mass[i]
		mp.COM = mp.COM.AddScaled(mass[i], pos[i])
	}
	if mp.M > 0 {
		mp.COM = mp.COM.Scale(1 / mp.M)
	}
	for i := range pos {
		d := pos[i].Sub(mp.COM)
		r2 := d.Norm2()
		mp.Q.AddOuterScaled(3*mass[i], d)
		mp.Q[0] -= mass[i] * r2
		mp.Q[1] -= mass[i] * r2
		mp.Q[2] -= mass[i] * r2
	}
	return mp
}

// Combine merges two multipoles (used bottom-up in the tree build): the
// parallel-axis theorem shifts each child quadrupole to the combined
// center of mass.
func Combine(parts ...Multipole) Multipole {
	var out Multipole
	for _, p := range parts {
		out.M += p.M
		out.COM = out.COM.AddScaled(p.M, p.COM)
	}
	if out.M > 0 {
		out.COM = out.COM.Scale(1 / out.M)
	}
	for _, p := range parts {
		if p.M == 0 {
			continue
		}
		out.Q.Add(p.Q)
		d := p.COM.Sub(out.COM)
		r2 := d.Norm2()
		out.Q.AddOuterScaled(3*p.M, d)
		out.Q[0] -= p.M * r2
		out.Q[1] -= p.M * r2
		out.Q[2] -= p.M * r2
	}
	return out
}

// AccelAt evaluates the expansion at point p (softening eps applies to the
// monopole term only, as in the treecode: cells passing the acceptance
// criterion are far enough that softening is negligible for higher
// moments). Returns acceleration and potential: one cell of the cell
// kernel's sum (addField, cellkernel.go), started from zero.
func (m Multipole) AccelAt(p vec.V3, eps float64) (vec.V3, float64) {
	ax, ay, az, pot := m.addField(p[0], p[1], p[2], eps*eps, 0, 0, 0, 0)
	return vec.V3{ax, ay, az}, pot
}
