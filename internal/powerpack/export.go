package powerpack

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Export of power profiles — the data-workstation side of the
// framework (§4.3: "we created software to filter and align data sets from
// individual nodes for use in power and performance analysis").

// WriteSamplesCSV emits samples as CSV: node,at_ns,watts.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"node", "at_ns", "watts"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			strconv.Itoa(s.Node),
			strconv.FormatInt(int64(s.At), 10),
			strconv.FormatFloat(s.Watts, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// measurementJSON is the serialized form of a Measurement.
type measurementJSON struct {
	ACPIJoules    float64 `json:"acpi_joules"`
	BaytechJoules float64 `json:"baytech_joules"`
	TrueJoules    float64 `json:"true_joules"`
	ElapsedNs     int64   `json:"elapsed_ns"`
}

// WriteMeasurementJSON serializes a measurement.
func WriteMeasurementJSON(w io.Writer, m Measurement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(measurementJSON{
		ACPIJoules:    m.ACPI,
		BaytechJoules: m.Baytech,
		TrueJoules:    m.True,
		ElapsedNs:     int64(m.Elapsed),
	})
}
