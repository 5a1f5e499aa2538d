package record

// Keyframe delta prefilter (storage format v2): the paper observes that
// periodic screenshots are highly redundant — a desktop rarely changes
// wholesale between keyframes — so before entropy coding, Save XORs each
// keyframe's rows against the previous keyframe's. Unchanged rows become
// runs of zero bytes that DEFLATE collapses to almost nothing; opening
// inverts the transform exactly (ensureScreensLocked, keyframe by
// keyframe as the log decodes), so the round trip is byte-identical.
//
// The filtered screenshot payload is one filter-id byte followed by the
// (possibly transformed) screenshot log. The 12-byte per-screenshot
// header (magic + dimensions) is never filtered, and a keyframe is only
// delta-coded against a predecessor of identical encoded length — both
// sides derive that decision from the timeline alone, so filter and
// unfilter always agree.
const (
	filterNone    = 0 // log stored verbatim
	filterXorPrev = 1 // pixels XORed with the previous keyframe's
)

// screenshotHeaderSize is the encoded screenshot's fixed prefix (magic,
// width, height) that the filter leaves untouched.
const screenshotHeaderSize = 12

// filterable reports whether timeline entry i can be delta-coded against
// entry i-1: identical encoded length and both ranges inside the log.
func filterable(tl []TimelineEntry, i int, logLen int) bool {
	cur, prev := tl[i], tl[i-1]
	return cur.ScreenLen == prev.ScreenLen &&
		cur.ScreenLen > screenshotHeaderSize &&
		cur.ScreenOff >= 0 && prev.ScreenOff >= 0 &&
		cur.ScreenOff+cur.ScreenLen <= int64(logLen) &&
		prev.ScreenOff+prev.ScreenLen <= int64(logLen)
}

// filterScreens returns the v2 screenshot payload: a filter-id byte
// followed by the delta-coded log. The input log is not modified.
func filterScreens(screens []byte, tl []TimelineEntry) []byte {
	out := make([]byte, 1, 1+len(screens))
	out[0] = filterXorPrev
	out = append(out, screens...)
	body := out[1:]
	// Each keyframe XORs against the *original* predecessor, which stays
	// intact in `screens` while we overwrite the copy.
	for i := 1; i < len(tl); i++ {
		if !filterable(tl, i, len(screens)) {
			continue
		}
		cur, prev := tl[i], tl[i-1]
		dst := body[cur.ScreenOff+screenshotHeaderSize : cur.ScreenOff+cur.ScreenLen]
		src := screens[prev.ScreenOff+screenshotHeaderSize : prev.ScreenOff+prev.ScreenLen]
		for j := range dst {
			dst[j] ^= src[j]
		}
	}
	return out
}
