#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

/// \file option_names.h
/// The route option enums and their one name table. Every front end that
/// spells a tree style or topology scheme -- the command-line flags, the
/// `.reqs` `style=`/`topology=` keys, the run report, the router's log
/// events, the differential's stage labels -- converts through here, so a
/// name exists exactly once. Header-only, so the `.reqs` reader can check
/// names without linking the router.

namespace gcr::core {

/// The tree styles of the paper's section 5.1 (see core/router.h).
enum class TreeStyle { Buffered, Gated, GatedReduced };

/// Topology generation scheme for the gated styles (Buffered always uses
/// nearest-neighbor, the conventional baseline).
enum class TopologyScheme {
  MinSwitchedCap,   ///< the paper's Eq. 3 greedy
  NearestNeighbor,  ///< geometry-only greedy [Edahiro'91]
  ActivityOnly,     ///< joint-activity greedy ([Tellez et al.'95] style)
  Mmm,              ///< top-down means-and-medians [Jackson et al.'90]
};

template <typename E>
struct NamedValue {
  E value;
  std::string_view name;
};

/// `OptionNames<E>::table` lists every value of E once, in declaration
/// order, with its stable external name.
template <typename E>
struct OptionNames;

template <>
struct OptionNames<TreeStyle> {
  static constexpr std::array<NamedValue<TreeStyle>, 3> table{{
      {TreeStyle::Buffered, "buffered"},
      {TreeStyle::Gated, "gated"},
      {TreeStyle::GatedReduced, "reduced"},
  }};
};

template <>
struct OptionNames<TopologyScheme> {
  static constexpr std::array<NamedValue<TopologyScheme>, 4> table{{
      {TopologyScheme::MinSwitchedCap, "swcap"},
      {TopologyScheme::NearestNeighbor, "nn"},
      {TopologyScheme::ActivityOnly, "activity"},
      {TopologyScheme::Mmm, "mmm"},
  }};
};

/// External name of `v` ("?" for a value outside the table).
template <typename E>
[[nodiscard]] constexpr std::string_view option_name(E v) {
  for (const NamedValue<E>& n : OptionNames<E>::table)
    if (n.value == v) return n.name;
  return "?";
}

/// The value named `name`; nullopt for a name not in the table.
template <typename E>
[[nodiscard]] constexpr std::optional<E> option_from_name(
    std::string_view name) {
  for (const NamedValue<E>& n : OptionNames<E>::table)
    if (n.name == name) return n.value;
  return std::nullopt;
}

/// Every name of E joined by '|' ("buffered|gated|reduced"), for
/// diagnostics that list the accepted values.
template <typename E>
[[nodiscard]] std::string option_name_list() {
  std::string out;
  for (const NamedValue<E>& n : OptionNames<E>::table) {
    if (!out.empty()) out += '|';
    out += n.name;
  }
  return out;
}

}  // namespace gcr::core
