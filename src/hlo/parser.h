#ifndef OVERLAP_HLO_PARSER_H_
#define OVERLAP_HLO_PARSER_H_

#include <memory>
#include <string>

#include "hlo/module.h"
#include "support/status.h"

namespace overlap {

/**
 * Parses the textual form produced by HloModule::ToString back into a
 * module, enabling round-trip tests, golden files and hand-written HLO
 * in tests and tools.
 *
 * Accepted grammar (one instruction per line):
 *
 *   module NAME [mesh[M,N]]
 *   computation NAME {
 *     [ROOT] %name = dtype[d0,d1,...] opcode(%op0, %op1, ...)[, attrs]
 *   }
 *
 * Attributes follow the printer exactly: `index=`, `spec=`, `value={..}`,
 * `starts={..}`, `sizes={..}`, `dims={..}`, `low={..}`, `high={..}`,
 * `value=`, `dim=`, `perm={..}`, `axis=`,
 * `groups={size=S,stride=T[,shift=K]}` (DeviceGroups), `channel=`,
 * `chunk=`, `fusion=`, `loop=`. Integers must be whole decimal
 * tokens ("2x" is an error, not 2). Constants whose
 * literal was elided by the printer (more than 16 elements) parse as
 * zeros.
 *
 * The parsed module is verified before being returned.
 */
StatusOr<std::unique_ptr<HloModule>> ParseHloModule(
    const std::string& text);

/** Maps an opcode mnemonic ("all-gather") back to its HloOpcode. */
StatusOr<HloOpcode> HloOpcodeFromName(const std::string& name);

}  // namespace overlap

#endif  // OVERLAP_HLO_PARSER_H_
