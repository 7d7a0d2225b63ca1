package harness

import "repro/internal/metrics"

// ParsePromText forwards to metrics.ParsePromText. The repository
// benchmark module (bench/) still calls the parser under this name.
func ParsePromText(text string) map[string]float64 { return metrics.ParsePromText(text) }

// PromSum forwards to metrics.PromSum, for the same caller.
func PromSum(samples map[string]float64, family string) float64 {
	return metrics.PromSum(samples, family)
}
