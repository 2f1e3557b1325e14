// Package metrics provides the evaluation metrics of the paper's
// experiments: silhouette score for embedding-cluster quality (Fig. 4),
// ROC-AUC for link-stealing attack strength (Table IV), and an exact t-SNE
// implementation for latent-space visualisation.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"gnnvault/internal/mat"
)

// Silhouette returns the mean silhouette coefficient of the embedding rows
// of x grouped by labels, using Euclidean distance.
//
// For each point: a = mean intra-cluster distance, b = smallest mean
// distance to another cluster, s = (b-a)/max(a,b). Points in singleton
// clusters score 0 (scikit-learn convention).
func Silhouette(x *mat.Matrix, labels []int) float64 {
	n := x.Rows
	if len(labels) != n {
		panic(fmt.Sprintf("metrics: labels length %d != rows %d", len(labels), n))
	}
	if n == 0 {
		return 0
	}
	classes := 0
	for _, l := range labels {
		if l < 0 {
			panic("metrics: negative label")
		}
		if l+1 > classes {
			classes = l + 1
		}
	}
	if classes < 2 {
		return 0
	}
	counts := make([]int, classes)
	for _, l := range labels {
		counts[l]++
	}
	total := 0.0
	sums := make([]float64, classes)
	for i := 0; i < n; i++ {
		for c := range sums {
			sums[c] = 0
		}
		xi := x.Row(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[labels[j]] += euclid(xi, x.Row(j))
		}
		own := labels[i]
		if counts[own] <= 1 {
			continue // silhouette of a singleton is 0
		}
		a := sums[own] / float64(counts[own]-1)
		b := math.Inf(1)
		for c := 0; c < classes; c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		d := math.Max(a, b)
		if d > 0 {
			total += (b - a) / d
		}
	}
	return total / float64(n)
}

func euclid(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ROCAUC computes the area under the ROC curve for scores against binary
// labels (true = positive). Ties in scores are handled by the rank-sum
// (Mann-Whitney U) formulation with midranks.
func ROCAUC(scores []float64, positive []bool) float64 {
	if len(scores) != len(positive) {
		panic(fmt.Sprintf("metrics: ROCAUC length mismatch %d vs %d", len(scores), len(positive)))
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Midranks over tied score groups.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		r := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			ranks[idx[k]] = r
		}
		i = j
	}
	var nPos, nNeg int
	var rankSum float64
	for i, p := range positive {
		if p {
			nPos++
			rankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}
