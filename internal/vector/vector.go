// Package vector provides the dense float64 vector operations used by the
// inner-product data structures of Section 5 (locality-sensitive filters)
// and by the SimHash / E2LSH families: dot products, norms, normalization,
// and samplers for random unit vectors and Gaussian directions.
package vector

import (
	"math"

	"fairnn/internal/rng"
)

// Vec is a dense vector of float64 components.
type Vec []float64

// Dot returns the inner product <a, b>. It panics if the dimensions
// differ. It dispatches to the AVX2+FMA kernel when one is active (see
// kernels.go) and otherwise to the portable 4-way-unrolled loop; every
// Dot caller (Section 5 filters, SimHash/E2LSH signing) shares the same
// resolved kernel within one process, which keeps batched and
// per-function hashing bit-equal.
//
//fairnn:noalloc
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic("vector: dimension mismatch")
	}
	if asmSupported && accelOn.Load() && len(a) >= asmBlock {
		return dotAccel(a, b)
	}
	return dotGeneric(a, b)
}

// dotGeneric is the portable kernel: four independent accumulators so
// the additions pipeline instead of serializing on one FP dependency
// chain. Assumes len(a) == len(b).
//
//fairnn:noalloc
func dotGeneric(a, b Vec) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// FirstNonFinite returns the index of the first NaN or ±Inf coordinate
// of v, or -1 when every coordinate is finite.
//
//fairnn:noalloc
func FirstNonFinite(v Vec) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// Norm returns the Euclidean norm of v.
func Norm(v Vec) float64 { return math.Sqrt(Dot(v, v)) }

// SquaredEuclidean returns the squared Euclidean distance between a and b —
// the sqrt-free kernel behind the Euclidean space's near test, which
// compares against r² instead of taking a square root per candidate.
// Dispatches like Dot.
func SquaredEuclidean(a, b Vec) float64 {
	if len(a) != len(b) {
		panic("vector: dimension mismatch")
	}
	if asmSupported && accelOn.Load() && len(a) >= asmBlock {
		return sqDistAccel(a, b)
	}
	return squaredEuclideanGeneric(a, b)
}

// squaredEuclideanGeneric is the portable kernel, unrolled like
// dotGeneric. Assumes len(a) == len(b).
func squaredEuclideanGeneric(a, b Vec) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Euclidean returns the Euclidean distance between a and b.
func Euclidean(a, b Vec) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// Cosine returns <a,b> / (|a||b|), i.e. the cosine of the angle between a
// and b. It returns 0 when either vector has zero norm.
func Cosine(a, b Vec) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Normalize scales v in place to unit norm and returns it.
// Zero vectors are returned unchanged.
func Normalize(v Vec) Vec {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Clone returns an independent copy of v.
func Clone(v Vec) Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Add returns a + b as a new vector.
func Add(a, b Vec) Vec {
	if len(a) != len(b) {
		panic("vector: dimension mismatch")
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Scale returns c * v as a new vector.
func Scale(v Vec, c float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Gaussian samples a d-dimensional vector with i.i.d. N(0,1) components —
// the random directions a_{i,j} of Section 5.
func Gaussian(r *rng.Source, d int) Vec {
	v := make(Vec, d)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// RandomUnit samples a vector uniformly from the unit sphere S^{d-1}.
func RandomUnit(r *rng.Source, d int) Vec {
	for {
		v := Gaussian(r, d)
		if Norm(v) > 1e-9 {
			return Normalize(v)
		}
	}
}

// UnitWithInnerProduct returns a unit vector whose inner product with the
// unit vector q is exactly alpha (|alpha| <= 1): it mixes q with a random
// unit direction orthogonal to q. Used to plant near neighbors at a known
// similarity for the Section 5 experiments.
func UnitWithInnerProduct(r *rng.Source, q Vec, alpha float64) Vec {
	if alpha > 1 {
		alpha = 1
	}
	if alpha < -1 {
		alpha = -1
	}
	// Draw a random direction and orthogonalize against q.
	var orth Vec
	for {
		u := RandomUnit(r, len(q))
		proj := Dot(u, q)
		orth = make(Vec, len(q))
		for i := range u {
			orth[i] = u[i] - proj*q[i]
		}
		if Norm(orth) > 1e-9 {
			Normalize(orth)
			break
		}
	}
	beta := math.Sqrt(1 - alpha*alpha)
	out := make(Vec, len(q))
	for i := range q {
		out[i] = alpha*q[i] + beta*orth[i]
	}
	return out
}
