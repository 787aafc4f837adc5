package serve

import (
	"math"
	"strconv"
)

// appendRow appends row's NDJSON line to dst: exactly the bytes
// json.Encoder.Encode(row) writes, trailing newline included, built with
// strconv instead of reflection so a Monte-Carlo worker can encode its
// rows as it produces them. It reports false, leaving unspecified bytes
// past dst's original length, when a float field is NaN or infinite —
// the values encoding/json refuses.
//
// The scheme name is copied verbatim: every core.Scheme name is plain
// ASCII that JSON never escapes (TestSchemeNamesNeedNoEscaping).
func appendRow(dst []byte, row *RunRow) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"run":`...)
	dst = strconv.AppendInt(dst, int64(row.Run), 10)
	dst = append(dst, `,"scheme":"`...)
	dst = append(dst, row.Scheme...)
	dst = append(dst, `","deadline_s":`...)
	dst = appendFloat(dst, row.DeadlineS, &ok)
	dst = append(dst, `,"finish_s":`...)
	dst = appendFloat(dst, row.FinishS, &ok)
	dst = append(dst, `,"met_deadline":`...)
	dst = strconv.AppendBool(dst, row.MetDeadline)
	dst = append(dst, `,"energy_j":`...)
	dst = appendFloat(dst, row.EnergyJ, &ok)
	dst = append(dst, `,"active_j":`...)
	dst = appendFloat(dst, row.ActiveJ, &ok)
	dst = append(dst, `,"overhead_j":`...)
	dst = appendFloat(dst, row.OverheadJ, &ok)
	dst = append(dst, `,"idle_j":`...)
	dst = appendFloat(dst, row.IdleJ, &ok)
	dst = append(dst, `,"speed_changes":`...)
	dst = strconv.AppendInt(dst, int64(row.SpeedChanges), 10)
	if len(row.ClassGrossJ) > 0 {
		dst = append(dst, `,"class_gross_j":`...)
		dst = appendFloats(dst, row.ClassGrossJ, &ok)
	}
	if len(row.ClassIdleJ) > 0 {
		dst = append(dst, `,"class_idle_j":`...)
		dst = appendFloats(dst, row.ClassIdleJ, &ok)
	}
	if len(row.Path) > 0 {
		dst = append(dst, `,"path":[`...)
		for i, b := range row.Path {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(b), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), ok
}

func appendFloats(dst []byte, fs []float64, ok *bool) []byte {
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, f, ok)
	}
	return append(dst, ']')
}

// appendFloat renders f as encoding/json renders a float64: the shortest
// 'f' form, switching to the shortest 'e' form when |f| is below 1e-6 or
// at least 1e21, with a one-digit negative exponent left unpadded ("1e-7",
// not "1e-07"). Negative zero stays "-0". A NaN or infinity clears *ok.
func appendFloat(dst []byte, f float64, ok *bool) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		*ok = false
		return dst
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
