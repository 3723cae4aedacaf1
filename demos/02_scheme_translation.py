"""Annotation schemes: detection, validation, and translation.

The same chunk structure can be written down in IO, BIO (aka IOB2) or
BILOU labels. Translation goes through the chunk set, so it is exact for
BIO and BILOU; IO cannot distinguish adjacent same-class chunks and is
therefore lossy.
"""

from seqlab import (
    AnnotationScheme,
    LabelSequence,
    convert_scheme,
    detect_scheme,
    validate_sequence,
)

BIO = AnnotationScheme.BIO
BILOU = AnnotationScheme.BILOU
IO = AnnotationScheme.IO


def bio(raw):
    return LabelSequence.from_raw(raw, BIO)


# =============================================================================
# Detection: BILOU if L/U occur, else BIO if B occurs, else IO
# =============================================================================

print(detect_scheme([["O", "I-PER"]]))                 # IO
print(detect_scheme([["B-PER", "I-PER", "O"]]))        # BIO
print(detect_scheme([["U-LOC"]]))                      # BILOU

# =============================================================================
# Validation: transition violations are data, not exceptions
# =============================================================================

broken = bio(["O", "I-PER"])
for violation in validate_sequence(broken):
    print(f"position {violation.position}: {violation.kind.value}")

# =============================================================================
# Translation: chunk-preserving
# =============================================================================

labels = bio(["B-PER", "I-PER", "O", "B-LOC"])
as_bilou = convert_scheme(labels, BILOU)
print(f"\nBIO   {labels.serialized()}")
print(f"BILOU {as_bilou.serialized()}")
print(f"back  {convert_scheme(as_bilou, BIO).serialized()}")

# =============================================================================
# IO is lossy: adjacent same-class chunks merge
# =============================================================================

two_chunks = bio(["B-PER", "B-PER"])
as_io = convert_scheme(two_chunks, IO)
recovered = convert_scheme(as_io, BIO)
print(f"\ntwo singleton chunks {two_chunks.serialized()}")
print(f"as IO               {as_io.serialized()}")
print(f"recovered           {recovered.serialized()}  <- one merged chunk")
