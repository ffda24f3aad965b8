package gbm_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gbm"
	"repro/internal/utility"
)

// ExampleCalibrate follows the paper's first future-work direction (§V.B):
// "simulation studies can be performed based on our model framework …
// using real market data". It generates a synthetic hourly price series
// (standing in for exchange data, which the offline build cannot fetch),
// fits the GBM by maximum likelihood, and solves the swap game under the
// fitted dynamics.
func ExampleCalibrate() {
	// A "market" with 3 months of hourly prices: µ = 0.0035/h, σ = 0.12/√h.
	truth := gbm.Process{Mu: 0.0035, Sigma: 0.12}
	rng := rand.New(rand.NewSource(99))
	series, err := truth.Path(rng, 2.0, 1.0, 24*90)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Synthetic market: %d hourly prices, first %.2f, last %.2f\n",
		len(series), series[0], series[len(series)-1])

	fitted, err := gbm.Calibrate(series, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MLE fit: µ̂ = %.5f/h (true %.4f), σ̂ = %.5f/√h (true %.2f)\n",
		fitted.Mu, truth.Mu, fitted.Sigma, truth.Sigma)

	// Solve the swap game under the fitted dynamics, starting from the
	// latest observed price.
	params := utility.Default()
	params.Price = fitted
	params.P0 = series[len(series)-1]
	model, err := core.New(params)
	if err != nil {
		log.Fatal(err)
	}

	band, ok, err := model.FeasibleRateRange()
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("Under the fitted dynamics no exchange rate is viable — do not swap.")
		return
	}
	opt, sr, err := model.OptimalRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Under fitted dynamics (P0 = %.3f):\n", params.P0)
	fmt.Printf("  viable band (%.3f, %.3f); quote P* = %.3f for the best SR = %.1f%%\n",
		band.Lo, band.Hi, opt, 100*sr)

	// Compare against the Table III assumption to show calibration matters.
	base, err := core.New(utility.Default().WithP0(params.P0))
	if err != nil {
		log.Fatal(err)
	}
	if _, srBase, err := base.OptimalRate(); err == nil {
		fmt.Printf("  (Table III dynamics would have promised SR = %.1f%%)\n", 100*srBase)
	}
	// Output:
	// Synthetic market: 2161 hourly prices, first 2.00, last 0.25
	// MLE fit: µ̂ = 0.00655/h (true 0.0035), σ̂ = 0.12257/√h (true 0.12)
	// Under fitted dynamics (P0 = 0.253):
	//   viable band (0.191, 0.346); quote P* = 0.272 for the best SR = 64.8%
	//   (Table III dynamics would have promised SR = 72.2%)
}
