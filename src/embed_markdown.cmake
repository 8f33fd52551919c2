# pdcu_embed_markdown(<target> <content-dir> <namespace> <function>)
#
# Compiles every <content-dir>/*.md file into <target>. At configure time
# this writes a translation unit to the build directory that defines
#
#   std::span<const pdcu::core::EmbeddedFile> <namespace>::<function>();
#
# returning {file name, file text} pairs sorted by file name: the order
# Repository::load lists the same directory in. The Markdown is the only
# copy of the content; editing, adding or removing a file re-runs the
# configure step on the next build. Configure fails on an empty directory
# or on a file that contains the raw-string delimiter.
function(pdcu_embed_markdown target content_dir namespace function)
  file(GLOB files CONFIGURE_DEPENDS "${content_dir}/*.md")
  list(SORT files)
  if(NOT files)
    message(FATAL_ERROR "pdcu_embed_markdown: no *.md files in ${content_dir}")
  endif()
  # Glob results track additions and removals; edits re-run configure too.
  set_property(DIRECTORY APPEND PROPERTY CMAKE_CONFIGURE_DEPENDS ${files})

  set(delimiter "pdcu_md")
  set(source "// Generated from ${content_dir}/*.md by src/embed_markdown.cmake.\n")
  string(APPEND source "// Do not edit: edit the Markdown files and rebuild.\n")
  string(APPEND source "#include \"pdcu/core/embedded.hpp\"\n\n")
  string(APPEND source "namespace ${namespace} {\n\nnamespace {\n\n")
  string(APPEND source "constexpr pdcu::core::EmbeddedFile kFiles[] = {\n")
  foreach(file IN LISTS files)
    file(READ "${file}" text)
    string(FIND "${text}" ")${delimiter}\"" clash)
    if(NOT clash EQUAL -1)
      message(FATAL_ERROR
        "pdcu_embed_markdown: ${file} contains the delimiter )${delimiter}\"")
    endif()
    get_filename_component(name "${file}" NAME)
    string(APPEND source "    {\"${name}\", R\"${delimiter}(${text})${delimiter}\"},\n")
  endforeach()
  string(APPEND source "};\n\n}  // namespace\n\n")
  string(APPEND source "std::span<const pdcu::core::EmbeddedFile> ${function}() {\n")
  string(APPEND source "  return kFiles;\n}\n\n}  // namespace ${namespace}\n")

  # Rewrite only on change, so a reconfigure recompiles nothing needlessly.
  set(output "${CMAKE_CURRENT_BINARY_DIR}/${function}.cpp")
  set(previous "")
  if(EXISTS "${output}")
    file(READ "${output}" previous)
  endif()
  if(NOT previous STREQUAL source)
    file(WRITE "${output}" "${source}")
  endif()
  target_sources(${target} PRIVATE "${output}")
endfunction()
