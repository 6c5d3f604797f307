// Markdown rendering of head-to-head artifacts: docs as build outputs.
//
// The renderer consumes a unified ResultFile (schema.h) whose records
// follow the head-to-head naming convention
//
//   headtohead/<task>/<algo>/n=<n>   counters: n, m, seeds, messages,
//                                    bits, rounds, bcast_echoes
//   headtohead-fit/<task>/<algo>     counters: exponent, coeff, r2, points
//
// and produces the experiment tables committed under docs/experiments/ plus
// the generated block spliced into EXPERIMENTS.md. Rendering is pure and
// byte-deterministic: tables follow the record order of the artifact (the
// producer writes a deterministic order), means print with at most one
// decimal and fitted exponents with three, so regenerated docs are
// byte-identical across runs and platforms at fixed seeds. The CI report
// stage regenerates both and fails on drift against the committed files.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "report/schema.h"

namespace kkt::report {

// Markers delimiting the generated region of EXPERIMENTS.md. Everything
// between them is owned by kkt_report; hand edits there are overwritten.
inline constexpr std::string_view kGeneratedBeginMarker =
    "<!-- BEGIN GENERATED: kkt_report headtohead (do not edit by hand) -->";
inline constexpr std::string_view kGeneratedEndMarker =
    "<!-- END GENERATED: kkt_report headtohead -->";

// The artifact's canonical file name: kkt_report run writes it by default,
// and the rendered document names it whichever file the artifact was read
// from, so the output depends on the artifact's content alone.
inline constexpr std::string_view kHeadToHeadArtifact = "BENCH_headtohead.json";

// The full head-to-head document (docs/experiments/headtohead.md).
std::string render_headtohead_markdown(const ResultFile& f);

// The compact exponent-summary block injected into EXPERIMENTS.md
// (marker lines not included).
std::string render_experiments_block(const ResultFile& f);

// Replaces the text strictly between the generated markers of `doc` with
// `block` (a newline is managed on each side). Returns nullopt when the
// markers are missing or out of order.
std::optional<std::string> splice_generated_block(std::string_view doc,
                                                  std::string_view block);

}  // namespace kkt::report
