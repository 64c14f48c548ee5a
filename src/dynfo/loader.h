/// \file loader.h
/// A text format for Dyn-FO programs: write the paper's constructions as a
/// spec instead of C++ builder calls. Line-oriented:
///
///   program reach_u
///   input {
///     relation E/2
///     constant s
///     constant t
///   }
///   data {
///     relation E/2
///     relation F/2
///     relation PV/3
///   }
///   macro Conn(x, y) := x = y | PV(x, y, x)
///   init PV(x, y, z) := x = y & y = z
///   on insert E {
///     E(x, y) := E(x, y) | (x = $0 & y = $1) | (x = $1 & y = $0)
///     ...
///   }
///   on delete E {
///     let T(x, y, z) := ...
///     F(x, y) := ...
///   }
///   on set s { }
///   query := Conn(s, t)
///   query connected(x, y) := Conn(x, y)
///   semidynamic        # optional: refuse deletes (Dyn_s)
///
/// '#' starts a comment. Formulas use the fo/parser.h syntax; macros are
/// visible to every later formula. The loaded program is Validate()d.

#ifndef DYNFO_DYNFO_LOADER_H_
#define DYNFO_DYNFO_LOADER_H_

#include <memory>
#include <string>

#include "core/status.h"
#include "dynfo/program.h"

namespace dynfo::dyn {

core::Result<std::shared_ptr<const DynProgram>> LoadProgramFromText(
    const std::string& text);

/// Reads the spec file at `path` and loads it; the error names the file
/// ("cannot open <path>" or "cannot load <path>: <why>").
core::Result<std::shared_ptr<const DynProgram>> LoadProgramFile(
    const std::string& path);

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_LOADER_H_
