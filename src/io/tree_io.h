#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "clocktree/routed_tree.h"
#include "guard/status.h"

/// \file tree_io.h
/// Plain-text export of a routed gated clock tree, for consumption by
/// downstream tooling (custom routers, visualizers, power signoff).
///
/// Format: a header line "tree <num_nodes> <num_leaves> <root>", then one
/// line per node:
///   <id> <x> <y> <parent> <edge_len> <gated 0/1> <down_cap> <delay>
/// Doubles are written as "%.17g": 17 significant digits, enough to
/// round-trip every double, with trailing zeros cut. That is not always the
/// shortest form: 0.5 is written "0.5", but 0.1 is "0.10000000000000001".
///
/// The reader is strict: it rejects duplicate or missing node ids,
/// out-of-range parents, a parented root, more than two children per node,
/// cyclic or disconnected parent chains (every node must be reachable from
/// the root), and a leaf count that disagrees with the header. The Diag
/// overload reports every problem with file:line locations; the legacy
/// overload throws guard::GuardError (a std::runtime_error) on the first.

namespace gcr::io {

void write_routed_tree(std::ostream& os, const ct::RoutedTree& tree);
[[nodiscard]] std::optional<ct::RoutedTree> read_routed_tree(
    std::istream& is, guard::Diag& diag,
    const std::string& filename = "<tree>");
[[nodiscard]] ct::RoutedTree read_routed_tree(std::istream& is);

}  // namespace gcr::io
