// Package metricnamefix is the metricname analyzer fixture.
package metricnamefix

import (
	"fmt"

	"diads/internal/telemetry"
)

// sprintfName builds a family name at runtime: prefix checks and the
// exposition docs can no longer enumerate the namespace.
func sprintfName(reg *telemetry.Registry, shard int) *telemetry.Counter {
	return reg.Counter(fmt.Sprintf("diads_shard_%d_ops_total", shard), "ops", nil) // want metricname
}

// wrongPrefix leaves the diads_* namespace.
func wrongPrefix(reg *telemetry.Registry) *telemetry.Gauge {
	return reg.Gauge("fleet_depth", "queue depth", nil) // want metricname
}

// notSnakeCase sneaks capitals into the family name.
func notSnakeCase(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.Histogram("diads_WaveSeconds", "wave wall time", nil, nil) // want metricname
}

// funcRegistration is checked too.
func funcRegistration(reg *telemetry.Registry, shard string) {
	reg.GaugeFunc("diads_queue_"+shard, "depth", nil, func() float64 { return 0 }) // want metricname
}

// literalName is the sanctioned shape: a diads_* snake_case literal,
// with dimensions in labels.
func literalName(reg *telemetry.Registry, shard string) *telemetry.Counter {
	return reg.Counter("diads_shard_ops_total", "ops", telemetry.Labels{"shard": shard})
}

// constName: named constants are still statically enumerable.
const waveSeconds = "diads_fleet_wave_seconds"

func constName(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.Histogram(waveSeconds, "wave wall time", nil, nil)
}
