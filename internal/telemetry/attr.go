package telemetry

// AttrKey is an event attribute key as it appears on the wire (JSONL field
// names and Chrome-trace args). Keys form a closed enum: every AttrKey
// literal in the module must be one of the constants below — the
// telemetry-attr lint in mdrcheck enforces it, so exporters, readers, and
// tools cannot drift apart on spelling.
type AttrKey string

// The registered attribute keys.
const (
	AttrT      AttrKey = "t"
	AttrSeq    AttrKey = "seq"
	AttrKind   AttrKey = "kind"
	AttrRouter AttrKey = "router"
	AttrPeer   AttrKey = "peer"
	AttrDst    AttrKey = "dst"
	AttrFlow   AttrKey = "flow"
	AttrValue  AttrKey = "value"
	AttrLabel  AttrKey = "label"
	AttrPkt    AttrKey = "pkt"
)

// Attrs lists every registered key in canonical wire order.
var Attrs = []AttrKey{
	AttrT, AttrSeq, AttrKind, AttrRouter, AttrPeer, AttrDst, AttrFlow, AttrValue, AttrLabel, AttrPkt,
}
