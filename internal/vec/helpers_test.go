package vec

// MulVec returns m * v.
func (m Sym33) MulVec(v V3) V3 {
	return V3{
		m[0]*v[0] + m[3]*v[1] + m[4]*v[2],
		m[3]*v[0] + m[1]*v[1] + m[5]*v[2],
		m[4]*v[0] + m[5]*v[1] + m[2]*v[2],
	}
}
