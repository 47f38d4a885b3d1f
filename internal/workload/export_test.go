package workload

import (
	"time"
)

// HourlyRates scales base per-second record rates by the diurnal curve for
// the given simulated instant.
func HourlyRates(ts time.Time, baseDNSPerSec, baseFlowPerSec int) (dns, flows int) {
	h := float64(ts.Hour()) + float64(ts.Minute())/60
	m := DiurnalMultiplier(h)
	return int(float64(baseDNSPerSec) * m), int(float64(baseFlowPerSec) * m)
}
