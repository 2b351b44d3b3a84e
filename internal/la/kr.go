package la

// KhatriRao returns the column-wise Khatri-Rao product A ⊙ B of an
// (I x R) and (J x R) matrix: an (I*J x R) matrix whose column r is the
// Kronecker product of column r of A with column r of B.
//
// CSTF never materializes this product (avoiding it is the whole point of
// the COO formulation); it exists so tests can check MTTKRP implementations
// against the textbook definition M = X(n) * (C ⊙ B).
func KhatriRao(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("la: khatri-rao column mismatch")
	}
	r := a.Cols
	out := NewDense(a.Rows*b.Rows, r)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			orow := out.Row(i*b.Rows + j)
			for k := 0; k < r; k++ {
				orow[k] = arow[k] * brow[k]
			}
		}
	}
	return out
}
