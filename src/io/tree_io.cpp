#include "io/tree_io.h"

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "guard/lexer.h"
#include "guard/validate.h"
#include "io/text_out.h"

namespace gcr::io {

namespace {

using guard::Code;
using guard::Lexer;
using guard::LineCursor;

}  // namespace

void write_routed_tree(std::ostream& os, const ct::RoutedTree& tree) {
  TextOut out(os);
  out << "# gcr routed clock tree\n";
  out << "tree " << tree.num_nodes() << ' ' << tree.num_leaves << ' '
      << tree.root << '\n';
  out << "# id x y parent edge_len gated down_cap delay\n";
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& n = tree.node(id);
    out << id << ' ' << n.loc.x << ' ' << n.loc.y << ' ' << n.parent << ' '
        << n.edge_len << ' ' << (n.gated ? 1 : 0) << ' ' << n.down_cap << ' '
        << n.delay << '\n';
  }
  out.flush();
}

std::optional<ct::RoutedTree> read_routed_tree(std::istream& is,
                                               guard::Diag& diag,
                                               const std::string& filename) {
  const std::size_t errors_before = diag.error_count();
  Lexer lx(is, filename);
  if (!lx.ok()) {
    diag.report(lx.load_status());
    return std::nullopt;
  }
  if (lx.num_lines() == 0) {
    diag.error(Code::Header,
               "tree file is empty (expected 'tree N L R' header)",
               lx.end_loc());
    return std::nullopt;
  }

  int num_nodes = 0, num_leaves = 0, root = -1;
  {
    LineCursor c = lx.cursor(0);
    std::string_view tag;
    if (!c.next_token(tag) || tag != "tree" || !c.next_int(num_nodes) ||
        !c.next_int(num_leaves) || !c.next_int(root)) {
      diag.error(Code::Header, "malformed tree header (expected 'tree N L R')",
                 c.loc());
      return std::nullopt;
    }
    if (!c.at_end()) {
      diag.error(Code::Parse, "trailing garbage after tree header", c.loc());
      return std::nullopt;
    }
    if (num_nodes <= 0 || num_leaves <= 0 || num_leaves > num_nodes ||
        root < 0 || root >= num_nodes) {
      diag.error(Code::Header,
                 "inconsistent tree header (need 0 < L <= N, 0 <= R < N)",
                 lx.line_loc(0));
      return std::nullopt;
    }
  }

  ct::RoutedTree tree;
  tree.num_leaves = num_leaves;
  tree.root = root;
  tree.nodes.resize(static_cast<std::size_t>(num_nodes));
  std::vector<int> defined_at(static_cast<std::size_t>(num_nodes), 0);

  for (std::size_t li = 1; li < lx.num_lines(); ++li) {
    LineCursor c = lx.cursor(li);
    int id = 0, parent = -1, gated = 0;
    double x = 0, y = 0, len = 0, cap = 0, delay = 0;
    if (!c.next_int(id) || !c.next_double(x) || !c.next_double(y) ||
        !c.next_int(parent) || !c.next_double(len) || !c.next_int(gated) ||
        !c.next_double(cap) || !c.next_double(delay)) {
      diag.error(Code::Parse,
                 "malformed node line (need 'id x y parent len gated cap "
                 "delay')",
                 c.loc());
      continue;
    }
    if (!c.at_end()) {
      diag.error(Code::Parse, "trailing garbage after node delay", c.loc());
      continue;
    }
    if (id < 0 || id >= num_nodes) {
      diag.error(Code::Range,
                 "node id " + std::to_string(id) + " outside [0, " +
                     std::to_string(num_nodes) + ")",
                 lx.line_loc(li));
      continue;
    }
    if (defined_at[static_cast<std::size_t>(id)] != 0) {
      diag.error(Code::Duplicate,
                 "node " + std::to_string(id) + " already defined at line " +
                     std::to_string(defined_at[static_cast<std::size_t>(id)]),
                 lx.line_loc(li));
      continue;
    }
    if (!guard::finite_normal(x) || !guard::finite_normal(y) ||
        !guard::finite_normal(len) || !guard::finite_normal(cap) ||
        !guard::finite_normal(delay)) {
      diag.error(Code::NonFinite,
                 "node " + std::to_string(id) +
                     " has a NaN, infinite or denormal field",
                 lx.line_loc(li));
      continue;
    }
    if (len < 0.0 || cap < 0.0 || delay < 0.0) {
      diag.error(Code::Range,
                 "node " + std::to_string(id) +
                     " has a negative length, cap or delay",
                 lx.line_loc(li));
      continue;
    }
    if (gated != 0 && gated != 1) {
      diag.error(Code::Parse, "gated flag must be 0 or 1", lx.line_loc(li));
      continue;
    }
    if (parent < -1 || parent >= num_nodes) {
      diag.error(Code::Range,
                 "parent " + std::to_string(parent) + " of node " +
                     std::to_string(id) + " outside [-1, " +
                     std::to_string(num_nodes) + ")",
                 lx.line_loc(li));
      continue;
    }
    if (parent == id) {
      diag.error(Code::TreeStructure,
                 "node " + std::to_string(id) + " is its own parent",
                 lx.line_loc(li));
      continue;
    }
    defined_at[static_cast<std::size_t>(id)] = lx.line_number(li);
    ct::RoutedNode& n = tree.nodes[static_cast<std::size_t>(id)];
    n.loc = {x, y};
    n.parent = parent;
    n.edge_len = len;
    n.gated = gated != 0;
    n.down_cap = cap;
    n.delay = delay;
    n.ms = geom::TiltedRect::from_point(n.loc);
  }

  for (int id = 0; id < num_nodes; ++id)
    if (defined_at[static_cast<std::size_t>(id)] == 0)
      diag.error(Code::TreeStructure,
                 "node " + std::to_string(id) + " is never defined",
                 lx.end_loc());
  if (diag.error_count() != errors_before) return std::nullopt;

  // Structural checks: the root carries no parent, every other node does,
  // no node has more than two children, and every node is reachable from
  // the root (which, with all parents valid, also rules out cycles -- the
  // old reader accepted cyclic parent chains and looped downstream).
  if (tree.nodes[static_cast<std::size_t>(root)].parent >= 0)
    diag.error(Code::TreeStructure,
               "root node " + std::to_string(root) + " has a parent");
  for (int id = 0; id < num_nodes; ++id) {
    if (id == root) continue;
    const int p = tree.nodes[static_cast<std::size_t>(id)].parent;
    if (p < 0) {
      diag.error(Code::TreeStructure,
                 "node " + std::to_string(id) +
                     " is not the root but has no parent");
      continue;
    }
    ct::RoutedNode& pn = tree.nodes[static_cast<std::size_t>(p)];
    if (pn.left < 0)
      pn.left = id;
    else if (pn.right < 0)
      pn.right = id;
    else
      diag.error(Code::TreeStructure, "node " + std::to_string(p) +
                                          " has more than two children");
  }
  if (diag.error_count() != errors_before) return std::nullopt;

  std::vector<int> stack{root};
  int reached = 0;
  int leaves = 0;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    ++reached;
    const ct::RoutedNode& n = tree.nodes[static_cast<std::size_t>(id)];
    if (n.left < 0) ++leaves;
    if (n.left >= 0) stack.push_back(n.left);
    if (n.right >= 0) stack.push_back(n.right);
  }
  if (reached != num_nodes)
    diag.error(Code::TreeStructure,
               std::to_string(num_nodes - reached) +
                   " nodes are unreachable from the root (cycle or "
                   "disconnected component)");
  else if (leaves != num_leaves)
    diag.error(Code::TreeStructure,
               "header declares " + std::to_string(num_leaves) +
                   " leaves but the tree has " + std::to_string(leaves));
  if (diag.error_count() != errors_before) return std::nullopt;
  return tree;
}

ct::RoutedTree read_routed_tree(std::istream& is) {
  guard::Diag diag;
  auto t = read_routed_tree(is, diag, "<tree>");
  if (!t) throw guard::GuardError(diag.first_error());
  return std::move(*t);
}

}  // namespace gcr::io
